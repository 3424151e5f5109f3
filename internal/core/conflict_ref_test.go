package core

// conflict_ref_test.go holds the reference construction of G_k: every
// adjacent pair is emitted into a plain graph.Builder, which sorts and
// dedupes them. BuildOpts writes the same graph row by row and must match
// it exactly, offsets, targets and weights.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// referenceBuild materialises G_k from pairwise emission.
func referenceBuild(t *testing.T, ix *Index) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(ix.NumNodes())
	emitEdgeShard(ix, b, 0, ix.h.M())
	emitVertexShard(ix, b, 0, ix.h.N())
	if ix.h.Weighted() {
		ws := make([]int64, ix.NumNodes())
		ix.ForEachTriple(func(id int32, tr Triple) bool {
			ws[id] = ix.h.Weight(tr.Vertex)
			return true
		})
		b.SetWeights(ws)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return g
}

// emitEdgeShard emits the E_edge cliques and E_color pairs whose container
// edge lies in [lo, hi). Every id is derived by offset arithmetic; the two
// endpoints can never coincide (same container: positions differ, different
// containers: disjoint id blocks), so no equality guard is needed.
func emitEdgeShard(ix *Index, b *graph.Builder, lo, hi int) {
	h, k := ix.h, ix.k
	var incBuf []int32
	for j := lo; j < hi; j++ {
		// E_edge: clique over the |e|·k contiguous triples of edge j.
		blo, bhi := ix.edgeOffset[j], ix.edgeOffset[j+1]
		for a := blo; a < bhi; a++ {
			for bb := a + 1; bb < bhi; bb++ {
				b.AddEdge(a, bb)
			}
		}
		// E_color, container j: for each ordered pair of distinct vertices
		// (v, u) of edge j and each edge g containing u, connect
		// (j, v, c) — (g, u, c) for every colour c. (The g = j pairs are
		// already in the E_edge clique; the builder deduplicates.)
		edge := h.EdgeView(j)
		for pu, u := range edge {
			incBuf = h.AppendIncidentEdges(incBuf[:0], u)
			pos := ix.incPos[u]
			for pv := range edge {
				if pv == pu {
					continue
				}
				base1 := ix.idAt(int32(j), int32(pv), 1)
				for i, g := range incBuf {
					base2 := ix.idAt(g, pos[i], 1)
					for c := int32(0); c < k; c++ {
						b.AddEdge(base1+c, base2+c)
					}
				}
			}
		}
	}
}

// emitVertexShard emits the E_vertex pairs for vertices in [lo, hi): for
// each pair of distinct incident edges, connect differing colours. Pairs
// within a single incident edge are already inside its E_edge clique and
// are skipped here.
func emitVertexShard(ix *Index, b *graph.Builder, lo, hi int) {
	h, k := ix.h, ix.k
	var incBuf []int32
	for v := lo; v < hi; v++ {
		incBuf = h.AppendIncidentEdges(incBuf[:0], int32(v))
		pos := ix.incPos[v]
		for i, e := range incBuf {
			baseE := ix.idAt(e, pos[i], 1)
			for i2 := i + 1; i2 < len(incBuf); i2++ {
				baseG := ix.idAt(incBuf[i2], pos[i2], 1)
				for c := int32(0); c < k; c++ {
					for d := int32(0); d < k; d++ {
						if c == d {
							continue
						}
						b.AddEdge(baseE+c, baseG+d)
					}
				}
			}
		}
	}
}

// randomMultiHypergraph draws up to 20 vertices and 15 edges of 1–5
// vertices, repeating an earlier edge one time in four (singletons arise
// from size-1 draws and from repeated picks), with vertex weights in
// 0..9 when weighted is set.
func randomMultiHypergraph(rng *rand.Rand, weighted bool) (*hypergraph.Hypergraph, error) {
	n := 1 + rng.Intn(20)
	m := rng.Intn(16)
	edges := make([][]int32, 0, m)
	for len(edges) < m {
		if len(edges) > 0 && rng.Intn(4) == 0 {
			edges = append(edges, edges[rng.Intn(len(edges))])
			continue
		}
		e := make([]int32, 1+rng.Intn(5))
		for i := range e {
			e[i] = int32(rng.Intn(n))
		}
		edges = append(edges, e)
	}
	var ws []int64
	if weighted {
		ws = make([]int64, n)
		for v := range ws {
			ws[v] = rng.Int63n(10)
		}
	}
	return hypergraph.NewWeighted(n, edges, ws)
}

// requireReference fails the test unless BuildOpts' graph on ix is the
// reference graph, passes Validate and fits rowBound.
func requireReference(t *testing.T, ix *Index) bool {
	t.Helper()
	got, err := BuildOpts(ix, engine.Options{})
	if err != nil {
		t.Errorf("BuildOpts: %v", err)
		return false
	}
	if !graph.Equal(got, referenceBuild(t, ix)) {
		t.Errorf("BuildOpts differs from the reference on %v, k=%d", ix.h, ix.k)
		return false
	}
	if err := got.Validate(); err != nil {
		t.Errorf("BuildOpts graph invalid: %v", err)
		return false
	}
	// The rows total 2·M ids; rowBound must cover them without
	// overshooting by more than a factor of two.
	if b := rowBound(ix); b < 2*got.M() || b > 4*got.M() {
		t.Errorf("rowBound = %d for rows totalling %d", b, 2*got.M())
		return false
	}
	return true
}

// TestQuickBuildOptsMatchesReference: on random hypergraphs with repeated
// edges and singletons, weighted and not, for k = 1..4, the rows BuildOpts
// writes are byte-identical to the pairwise reference, and the graph is
// a valid (symmetric, sorted, loop-free) CSR.
func TestQuickBuildOptsMatchesReference(t *testing.T) {
	check := func(seed int64, weighted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := randomMultiHypergraph(rng, weighted)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for k := 1; k <= 4; k++ {
			ix, err := NewIndex(h, k)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !requireReference(t, ix) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBuildOptsMatchesReferencePlanted covers the serving benchmark's cold
// instance shape and two larger planted instances.
func TestBuildOptsMatchesReferencePlanted(t *testing.T) {
	for _, c := range []struct{ n, m, k, minSize, maxSize int }{
		{350, 350, 3, 2, 3},
		{2000, 800, 3, 2, 4},
		{2000, 800, 3, 3, 5},
	} {
		h, _, err := hypergraph.PlantedCF(c.n, c.m, c.k, c.minSize, c.maxSize, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("PlantedCF%v: %v", c, err)
		}
		requireReference(t, mustIndex(t, h, c.k))
	}
}
