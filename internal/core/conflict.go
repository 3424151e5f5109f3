package core

// conflict.go constructs the conflict graph G_k of Section 2, in two
// forms. Build materialises it as an explicit graph for the MaxIS oracles.
// Implicit answers adjacency queries straight from H — mirroring the
// paper's observation that "the conflict graph G_k can be efficiently
// simulated in H in the LOCAL model": the neighbourhood of (e, v, c)
// depends only on the edges incident to v and to e's members, information
// within O(1) hops of v in the bipartite incidence structure of H.
//
// The edge set, for distinct triples t1 = (e, v, c), t2 = (g, u, d):
//
//	E_edge:   e == g                                  (per-edge cliques)
//	E_vertex: v == u and c != d                       (one colour per vertex)
//	E_color:  c == d, v != u, and {u,v} ⊆ e or {u,v} ⊆ g
//
// E_color requires u != v: with u == v allowed, two identical singleton
// edges {v} would make the corresponding picks adjacent and Lemma 2.1(a)
// false; the lemma's proof (case E_color) indeed derives its contradiction
// from a vertex u distinct from v. DESIGN.md records this reading.
//
// Build and the virtual Luby run of localsim.go both read G_k row by row
// from a rowWriter, which writes every triple's neighbourhood in id order
// straight from the Index. Node ids come from pure offset arithmetic over
// the Index tables — NewIndex validated the structure once, so the row
// loops have no error paths. Adjacent states the same neighbourhood as a
// predicate, beside the definition above; the tests hold the rows to it.
// DESIGN.md, "G_k row emission", records the design.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
)

// Build materialises G_k for conflict-free k-colouring of h.
func Build(ix *Index) (*graph.Graph, error) {
	return BuildOpts(ix, engine.Options{})
}

// BuildOpts materialises G_k, checking opts' context between hyperedges.
// The rows are written serially in id order, each already sorted, so the
// CSR is filled in one pass with nothing to sort or merge; opts.Workers
// does not widen the build.
func BuildOpts(ix *Index, opts engine.Options) (*graph.Graph, error) {
	h := ix.h
	offsets := make([]int32, ix.NumNodes()+1)
	targets := make([]int32, 0, rowBound(ix))
	rows := rowWriter{ix: ix}
	id := 0
	for e := int32(0); int(e) < h.M(); e++ {
		if err := opts.Err(); err != nil {
			return nil, err
		}
		rows.reset(e)
		for p := int32(0); int(p) < h.EdgeSize(int(e)); p++ {
			for c := int32(1); c <= ix.k; c++ {
				targets = rows.appendRow(targets, p, c)
				id++
				offsets[id] = int32(len(targets))
			}
		}
	}
	g, err := graph.FromCSR(offsets, targets)
	if err != nil {
		return nil, fmt.Errorf("core: conflict graph assembly: %w", err)
	}
	if h.Weighted() {
		// Triple (e, v, c) inherits w_H(v), so a maximum-weight independent
		// set of G_k colours the heaviest vertices first — the weighted
		// conflict-free objective rides the unchanged reduction loop.
		ws := make([]int64, ix.NumNodes())
		ix.ForEachTriple(func(id int32, t Triple) bool {
			ws[id] = h.Weight(t.Vertex)
			return true
		})
		g, err = graph.WithWeights(g, ws)
		if err != nil {
			return nil, fmt.Errorf("core: conflict graph weights: %w", err)
		}
	}
	return g, nil
}

// rowBound bounds the total length of G_k's rows from hyperedge sizes
// and degrees, so BuildOpts sizes its targets once. By rowWriter's rule,
// triple (e, v, c) takes |e|·k − 1 ids from block e, |g| + k − 2 from
// each other g ∋ v, and |e ∩ g| from each g ∌ v that meets e. The bound
// counts the last as Σ_{u ∈ e, u ≠ v} (deg u − 1), which adds |e ∩ g| − 1
// for each other g ∋ v: it is exact unless two hyperedges share two
// vertices, and never above twice the total.
func rowBound(ix *Index) int {
	h, k := ix.h, int(ix.k)
	total := 0
	for e := 0; e < h.M(); e++ {
		edge := h.EdgeView(e)
		for _, v := range edge {
			row := len(edge)*k - 1
			for _, u := range edge {
				if u != v {
					row += h.Degree(u) - 1
				}
			}
			h.ForEachIncidentEdge(v, func(g int32) bool {
				if int(g) != e {
					row += h.EdgeSize(int(g)) + k - 2
				}
				return true
			})
			total += k * row
		}
	}
	return total
}

// rowWriter writes the rows of G_k one hyperedge e at a time. reset sorts
// the incidences of e's members by (block, position in block) once; the
// blocks are the id ranges of the hyperedges that meet e, and only they
// hold neighbours of e's triples. appendRow then walks the blocks in
// ascending order for one triple t = (e, v, c), and each block g adds:
//
//	g = e:  every id of the block except t's own
//	g ∋ v:  (g, u, c) for u ≠ v, and (g, v, d) for d ≠ c
//	other:  (g, u, c) for u ∈ e ∩ g
//
// Blocks occupy ascending id ranges and each adds its ids in ascending
// order, so every row comes out strictly ascending, without repeats.
type rowWriter struct {
	ix   *Index
	e    int32
	hits []blockHit // e's members' incidences, sorted by (g, gpos)
	inc  []int32    // incidence scratch
}

// blockHit records that the member at position epos of the current
// hyperedge sits at position gpos of hyperedge g.
type blockHit struct{ g, gpos, epos int32 }

// reset prepares the rows of hyperedge e.
func (w *rowWriter) reset(e int32) {
	h, incPos := w.ix.h, w.ix.incPos
	w.e = e
	w.hits = w.hits[:0]
	for p, u := range h.EdgeView(int(e)) {
		w.inc = h.AppendIncidentEdges(w.inc[:0], u)
		for i, g := range w.inc {
			w.hits = append(w.hits, blockHit{g: g, gpos: incPos[u][i], epos: int32(p)})
		}
	}
	slices.SortFunc(w.hits, func(a, b blockHit) int {
		return cmp.Or(cmp.Compare(a.g, b.g), cmp.Compare(a.gpos, b.gpos))
	})
}

// appendRow appends the row of triple (e, v, c), v the member at position
// p of the hyperedge e given to reset, to dst.
func (w *rowWriter) appendRow(dst []int32, p, c int32) []int32 {
	ix, k, hits := w.ix, w.ix.k, w.hits
	for i := 0; i < len(hits); {
		g := hits[i].g
		j, own := i, int32(-1) // own: v's position in g, when v ∈ g
		for ; j < len(hits) && hits[j].g == g; j++ {
			if hits[j].epos == p {
				own = hits[j].gpos
			}
		}
		run := hits[i:j]
		i = j
		lo, hi := ix.edgeOffset[g], ix.edgeOffset[g+1]
		switch {
		case g == w.e:
			self := ix.idAt(g, p, c)
			for id := lo; id < hi; id++ {
				if id != self {
					dst = append(dst, id)
				}
			}
		case own >= 0:
			vlo := ix.idAt(g, own, 1)
			for base := lo; base < hi; base += k {
				if base != vlo {
					dst = append(dst, base+c-1)
					continue
				}
				for id := base; id < base+k; id++ {
					if id != base+c-1 {
						dst = append(dst, id)
					}
				}
			}
		default:
			for _, hit := range run {
				dst = append(dst, ix.idAt(g, hit.gpos, c))
			}
		}
	}
	return dst
}

// Adjacent reports whether two triples are adjacent in G_k, directly from
// the definition (no materialisation).
func Adjacent(ix *Index, t1, t2 Triple) (bool, error) {
	if _, err := ix.ID(t1); err != nil {
		return false, err
	}
	if _, err := ix.ID(t2); err != nil {
		return false, err
	}
	if t1 == t2 {
		return false, nil
	}
	if t1.Edge == t2.Edge {
		return true, nil // E_edge
	}
	if t1.Vertex == t2.Vertex && t1.Color != t2.Color {
		return true, nil // E_vertex
	}
	if t1.Color == t2.Color && t1.Vertex != t2.Vertex {
		// E_color: {u, v} ⊆ e or {u, v} ⊆ g. t1.Vertex ∈ e and
		// t2.Vertex ∈ g hold by construction.
		if ix.h.EdgeContains(int(t1.Edge), t2.Vertex) || ix.h.EdgeContains(int(t2.Edge), t1.Vertex) {
			return true, nil
		}
	}
	return false, nil
}

// FirstFitTriples runs the first-fit greedy independent set directly on
// the implicit conflict graph: triples are scanned in dense id order —
// descending vertex weight (stable, so dense id order within equal
// weights) on weighted hypergraphs — and kept when compatible with
// everything kept so far. The blocking tests use only H-local
// information, so the scan runs in O(Σ_e |e| · k · (|e| + deg_H)) time
// without building G_k. On unweighted inputs the result equals first-fit
// greedy on the explicit graph (asserted by tests) and powers the
// reduction's large-instance mode. For repeated scans (one per reduction
// phase) use FirstFitScratch, which reuses its buffers across calls.
func FirstFitTriples(ix *Index) []Triple {
	var s FirstFitScratch
	return s.FirstFit(ix)
}

// FirstFitScratch is the batched variant of FirstFitTriples: it holds the
// per-scan state (edge choices, vertex colours, output) and reuses it
// across calls, so a multi-phase reduction allocates the buffers once
// instead of once per phase. The zero value is ready to use.
type FirstFitScratch struct {
	// edgeChoice[e] = chosen triple on edge e when hasChoice[e] (E_edge
	// allows at most one).
	edgeChoice []Triple
	hasChoice  []bool
	// vertexColor[v] = colour of v's chosen triples (E_vertex forces
	// uniqueness; 0 = none).
	vertexColor []int32
	out         []Triple
	order       []Triple // weighted-scan ordering buffer
}

// FirstFit runs the first-fit scan on ix, reusing the scratch buffers. On
// weighted hypergraphs the scan visits triples by descending vertex
// weight (stable within equal weights), so heavy vertices claim their
// colours first; first-fit over any order yields a maximal independent
// set of G_k, so the accept logic is unchanged. The returned slice is
// owned by the scratch and valid until the next call; callers that retain
// it across calls must copy it.
func (s *FirstFitScratch) FirstFit(ix *Index) []Triple {
	h := ix.h
	s.edgeChoice = resize(s.edgeChoice, h.M())
	s.hasChoice = resize(s.hasChoice, h.M())
	s.vertexColor = resize(s.vertexColor, h.N())
	s.out = s.out[:0]
	if h.Weighted() {
		s.order = s.order[:0]
		ix.ForEachTriple(func(_ int32, t Triple) bool {
			s.order = append(s.order, t)
			return true
		})
		sort.SliceStable(s.order, func(a, b int) bool {
			return h.Weight(s.order[a].Vertex) > h.Weight(s.order[b].Vertex)
		})
		for _, t := range s.order {
			s.tryAccept(ix, t)
		}
		return s.out
	}
	ix.ForEachTriple(func(_ int32, t Triple) bool {
		s.tryAccept(ix, t)
		return true
	})
	return s.out
}

// tryAccept adds t to the chosen set when no chosen triple blocks it.
func (s *FirstFitScratch) tryAccept(ix *Index, t Triple) {
	h := ix.h
	if s.hasChoice[t.Edge] {
		return // E_edge block
	}
	if vc := s.vertexColor[t.Vertex]; vc != 0 && vc != t.Color {
		return // E_vertex block
	}
	// E_color, container e: some chosen triple with colour t.Color at
	// another vertex of t.Edge.
	blocked := false
	h.ForEachEdgeVertex(int(t.Edge), func(u int32) bool {
		if u != t.Vertex && s.vertexColor[u] == t.Color {
			blocked = true
			return false
		}
		return true
	})
	if blocked {
		return
	}
	// E_color, container g: a chosen triple (g, u, t.Color) with u
	// different from t.Vertex on an edge g containing t.Vertex.
	h.ForEachIncidentEdge(t.Vertex, func(g int32) bool {
		if s.hasChoice[g] {
			if ch := s.edgeChoice[g]; ch.Color == t.Color && ch.Vertex != t.Vertex {
				blocked = true
				return false
			}
		}
		return true
	})
	if blocked {
		return
	}
	s.edgeChoice[t.Edge] = t
	s.hasChoice[t.Edge] = true
	s.vertexColor[t.Vertex] = t.Color
	s.out = append(s.out, t)
}

// resize returns buf with length n and every element zeroed, reallocating
// only when the capacity is insufficient.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// IsIndependentTriples reports whether the given triples are pairwise
// non-adjacent in G_k (quadratic; intended for verification in tests and
// experiments).
func IsIndependentTriples(ix *Index, ts []Triple) (bool, error) {
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			if ts[i] == ts[j] {
				return false, nil
			}
			adj, err := Adjacent(ix, ts[i], ts[j])
			if err != nil {
				return false, err
			}
			if adj {
				return false, nil
			}
		}
	}
	return true, nil
}

// IDsToTriples maps dense node ids to triples.
func IDsToTriples(ix *Index, ids []int32) ([]Triple, error) {
	out := make([]Triple, len(ids))
	for i, id := range ids {
		t, err := ix.TripleOf(id)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// TriplesToIDs maps triples to dense node ids.
func TriplesToIDs(ix *Index, ts []Triple) ([]int32, error) {
	out := make([]int32, len(ts))
	for i, t := range ts {
		id, err := ix.ID(t)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}
