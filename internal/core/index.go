// Package core implements the paper's contribution (Section 2): the
// conflict graph G_k of conflict-free k-colouring a hypergraph H, the
// Lemma 2.1 correspondence between independent sets of G_k and partial
// colourings of H, and the Theorem 1.1 reduction that solves conflict-free
// multicolouring with a λ-approximate maximum independent set oracle.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"pslocal/internal/hypergraph"
)

// Errors returned by the conflict-graph machinery.
var (
	// ErrBadK reports a non-positive palette size.
	ErrBadK = errors.New("core: palette size k must be >= 1")
	// ErrBadTriple reports a triple (e, v, c) with e not an edge of H,
	// v not a vertex of e, or c outside 1..k.
	ErrBadTriple = errors.New("core: invalid conflict-graph triple")
	// ErrBadNodeID reports a dense node id outside the conflict graph.
	ErrBadNodeID = errors.New("core: conflict-graph node id out of range")
)

// Triple identifies a node (e, v, c) of the conflict graph: hyperedge
// index e, vertex v ∈ e, and colour 1 <= c <= k.
type Triple struct {
	// Edge is the hyperedge index in H.
	Edge int32
	// Vertex is a vertex of that hyperedge.
	Vertex int32
	// Color is 1-based.
	Color int32
}

// String renders the triple in the paper's (e, v, c) form.
func (t Triple) String() string {
	return fmt.Sprintf("(e%d,v%d,c%d)", t.Edge, t.Vertex, t.Color)
}

// Index provides the dense numbering of V(G_k) = {(e, v, c)}: the triples
// of edge e occupy a contiguous block, ordered by the position of v within
// the sorted edge and then by colour.
type Index struct {
	h          *hypergraph.Hypergraph
	k          int32
	edgeOffset []int32 // per edge, starting node id; len M()+1
	// incPos[v][i] is the position of v within edge h.IncidentEdges(v)[i];
	// aligned with the incidence lists. Precomputed once so the row
	// emission of conflict.go runs on pure offset arithmetic with no
	// per-edge error paths (DESIGN.md, "G_k row emission").
	incPos [][]int32
}

// NewIndex builds the triple numbering for conflict-free k-colouring of h.
// All structural validation happens here, once: every triple the
// construction loops derive from the offsets below is valid by
// construction, which is what lets them skip the checked ID path.
func NewIndex(h *hypergraph.Hypergraph, k int) (*Index, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadK, k)
	}
	offsets := make([]int32, h.M()+1)
	for j := 0; j < h.M(); j++ {
		offsets[j+1] = offsets[j] + int32(h.EdgeSize(j)*k)
	}
	// Incidence lists hold ascending edge indices, so walking the edges in
	// ascending order appends each vertex's positions in incidence order.
	incPos := make([][]int32, h.N())
	for v := int32(0); int(v) < h.N(); v++ {
		incPos[v] = make([]int32, 0, h.Degree(v))
	}
	for j := 0; j < h.M(); j++ {
		pos := int32(0)
		h.ForEachEdgeVertex(j, func(v int32) bool {
			incPos[v] = append(incPos[v], pos)
			pos++
			return true
		})
	}
	return &Index{h: h, k: int32(k), edgeOffset: offsets, incPos: incPos}, nil
}

// idAt returns the dense node id of the triple whose vertex sits at
// position pos of edge e with colour c, by pure offset arithmetic. Callers
// guarantee validity (NewIndex validated the structure once).
func (ix *Index) idAt(e int32, pos int32, c int32) int32 {
	return ix.edgeOffset[e] + pos*ix.k + (c - 1)
}

// Hypergraph returns the underlying hypergraph H.
func (ix *Index) Hypergraph() *hypergraph.Hypergraph { return ix.h }

// K returns the palette size.
func (ix *Index) K() int { return int(ix.k) }

// NumNodes returns |V(G_k)| = k · Σ_e |e|.
func (ix *Index) NumNodes() int { return int(ix.edgeOffset[ix.h.M()]) }

// ID returns the dense node id of t.
func (ix *Index) ID(t Triple) (int32, error) {
	if t.Edge < 0 || int(t.Edge) >= ix.h.M() || t.Color < 1 || t.Color > ix.k {
		return 0, fmt.Errorf("%w: %v", ErrBadTriple, t)
	}
	pos, ok := slices.BinarySearch(ix.h.EdgeView(int(t.Edge)), t.Vertex)
	if !ok {
		return 0, fmt.Errorf("%w: %v (vertex not in edge)", ErrBadTriple, t)
	}
	return ix.idAt(t.Edge, int32(pos), t.Color), nil
}

// TripleOf returns the triple with dense node id.
func (ix *Index) TripleOf(id int32) (Triple, error) {
	if id < 0 || int(id) >= ix.NumNodes() {
		return Triple{}, fmt.Errorf("%w: %d", ErrBadNodeID, id)
	}
	// Binary search for the owning edge block.
	j := sort.Search(ix.h.M(), func(j int) bool { return ix.edgeOffset[j+1] > id })
	rem := id - ix.edgeOffset[j]
	pos := rem / ix.k
	colour := rem%ix.k + 1
	return Triple{
		Edge:   int32(j),
		Vertex: ix.h.EdgeView(j)[pos],
		Color:  colour,
	}, nil
}

// ForEachTriple calls fn for every conflict-graph node in dense id order;
// it stops early if fn returns false.
func (ix *Index) ForEachTriple(fn func(id int32, t Triple) bool) {
	id := int32(0)
	for j := 0; j < ix.h.M(); j++ {
		for _, v := range ix.h.EdgeView(j) {
			for c := int32(1); c <= ix.k; c++ {
				if !fn(id, Triple{Edge: int32(j), Vertex: v, Color: c}) {
					return
				}
				id++
			}
		}
	}
}

// EdgeCliqueHint returns the clique-partition hint for the exact MaxIS
// solver: every conflict-graph node is assigned its edge index, and E_edge
// makes each edge's block a clique (the source of the α(G_k) <= m bound in
// Lemma 2.1a).
func (ix *Index) EdgeCliqueHint() []int32 {
	hint := make([]int32, ix.NumNodes())
	for j := 0; j < ix.h.M(); j++ {
		for id := ix.edgeOffset[j]; id < ix.edgeOffset[j+1]; id++ {
			hint[id] = int32(j)
		}
	}
	return hint
}
