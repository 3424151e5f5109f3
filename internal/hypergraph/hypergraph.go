// Package hypergraph provides the hypergraph substrate for conflict-free
// (multi)colouring, the source problem of the paper's reduction (Theorem 1.2
// in the paper, quoted from [GKM17]).
//
// A hypergraph H = (V, E) has dense int32 vertices 0..N()-1 and a list of
// hyperedges, each a non-empty sorted set of vertices. The structure is
// immutable after construction; phase i of the reduction derives
// H_i = (V, E_i) via KeepEdges without copying vertex data.
package hypergraph

import (
	"errors"
	"fmt"
	"slices"
)

// Errors returned by constructors.
var (
	// ErrVertexRange reports a vertex outside 0..n-1.
	ErrVertexRange = errors.New("hypergraph: vertex out of range")
	// ErrEmptyEdge reports a hyperedge with no vertices; conflict-free
	// colouring is undefined for empty edges.
	ErrEmptyEdge = errors.New("hypergraph: empty hyperedge")
	// ErrNegativeSize reports a negative vertex count.
	ErrNegativeSize = errors.New("hypergraph: negative vertex count")
)

// Hypergraph is an immutable hypergraph with dense vertices and indexed
// hyperedges.
type Hypergraph struct {
	n         int
	edges     [][]int32 // each sorted, duplicate-free, non-empty
	incidence [][]int32 // incidence[v] = ascending edge indices containing v
	weights   []int64   // optional vertex weights; nil means all-unit (see weights.go)
}

// New builds a hypergraph on n vertices from the given hyperedges. Each
// edge is copied, sorted and de-duplicated. Empty edges and out-of-range
// vertices are errors.
func New(n int, edges [][]int32) (*Hypergraph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeSize, n)
	}
	h := &Hypergraph{n: n, edges: make([][]int32, len(edges))}
	for j, e := range edges {
		if len(e) == 0 {
			return nil, fmt.Errorf("%w: edge %d", ErrEmptyEdge, j)
		}
		cp := make([]int32, len(e))
		copy(cp, e)
		slices.Sort(cp)
		w := 1
		for i := 1; i < len(cp); i++ {
			if cp[i] != cp[i-1] {
				cp[w] = cp[i]
				w++
			}
		}
		cp = cp[:w]
		if cp[0] < 0 || int(cp[w-1]) >= n {
			return nil, fmt.Errorf("%w: edge %d", ErrVertexRange, j)
		}
		h.edges[j] = cp
	}
	h.buildIncidence()
	return h, nil
}

// MustNew is New for statically correct construction sites (generators,
// tests); it panics on error.
func MustNew(n int, edges [][]int32) *Hypergraph {
	h, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return h
}

func (h *Hypergraph) buildIncidence() {
	h.incidence = make([][]int32, h.n)
	for j, e := range h.edges {
		for _, v := range e {
			h.incidence[v] = append(h.incidence[v], int32(j))
		}
	}
}

// N returns the number of vertices.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// EdgeSize returns |e_j|.
func (h *Hypergraph) EdgeSize(j int) int { return len(h.edges[j]) }

// Edge returns a fresh copy of the sorted vertex list of edge j.
func (h *Hypergraph) Edge(j int) []int32 {
	out := make([]int32, len(h.edges[j]))
	copy(out, h.edges[j])
	return out
}

// EdgeView returns the sorted vertex list of edge j without copying it.
// The slice aliases H's storage, so callers must not modify it. The
// lookups and row emission of internal/core read edges through it.
func (h *Hypergraph) EdgeView(j int) []int32 { return h.edges[j] }

// AppendIncidentEdges appends the ascending edge indices containing v to
// dst and returns the extended slice, avoiding an allocation when dst has
// capacity.
func (h *Hypergraph) AppendIncidentEdges(dst []int32, v int32) []int32 {
	return append(dst, h.incidence[v]...)
}

// Edges returns a deep copy of the hyperedge list, each edge sorted and
// duplicate-free — the whole-structure accessor for external serializers
// and for comparing instances across an I/O round trip (graphio's tests
// do). Iteration call sites should prefer ForEachEdgeVertex or
// EdgeView, which do not allocate per edge.
func (h *Hypergraph) Edges() [][]int32 {
	out := make([][]int32, len(h.edges))
	for j, e := range h.edges {
		cp := make([]int32, len(e))
		copy(cp, e)
		out[j] = cp
	}
	return out
}

// ForEachEdgeVertex calls fn for every vertex of edge j in ascending order;
// it stops early if fn returns false.
func (h *Hypergraph) ForEachEdgeVertex(j int, fn func(v int32) bool) {
	for _, v := range h.edges[j] {
		if !fn(v) {
			return
		}
	}
}

// EdgeContains reports whether vertex v belongs to edge j.
func (h *Hypergraph) EdgeContains(j int, v int32) bool {
	_, ok := slices.BinarySearch(h.EdgeView(j), v)
	return ok
}

// Degree returns the number of hyperedges containing v.
func (h *Hypergraph) Degree(v int32) int { return len(h.incidence[v]) }

// IncidentEdges returns a fresh copy of the ascending edge indices
// containing v.
func (h *Hypergraph) IncidentEdges(v int32) []int32 {
	out := make([]int32, len(h.incidence[v]))
	copy(out, h.incidence[v])
	return out
}

// ForEachIncidentEdge calls fn for every edge index containing v in
// ascending order; it stops early if fn returns false.
func (h *Hypergraph) ForEachIncidentEdge(v int32, fn func(j int32) bool) {
	for _, j := range h.incidence[v] {
		if !fn(j) {
			return
		}
	}
}

// MinEdgeSize returns the smallest hyperedge size, or 0 if there are no
// edges.
func (h *Hypergraph) MinEdgeSize() int {
	if len(h.edges) == 0 {
		return 0
	}
	min := len(h.edges[0])
	for _, e := range h.edges[1:] {
		if len(e) < min {
			min = len(e)
		}
	}
	return min
}

// MaxEdgeSize returns the largest hyperedge size, or 0 if there are no
// edges.
func (h *Hypergraph) MaxEdgeSize() int {
	max := 0
	for _, e := range h.edges {
		if len(e) > max {
			max = len(e)
		}
	}
	return max
}

// TotalEdgeSize returns Σ_e |e|, which is also |V(G_k)|/k for the conflict
// graph of Section 2.
func (h *Hypergraph) TotalEdgeSize() int {
	total := 0
	for _, e := range h.edges {
		total += len(e)
	}
	return total
}

// IsAlmostUniform reports whether there is a k with k <= |e| <= (1+eps)·k
// for every edge e (the paper's definition before Theorem 1.2), and returns
// the witness k = MinEdgeSize when it holds.
func (h *Hypergraph) IsAlmostUniform(eps float64) (k int, ok bool) {
	if eps <= 0 || eps > 1 {
		return 0, false
	}
	if h.M() == 0 {
		return 0, true
	}
	k = h.MinEdgeSize()
	if float64(h.MaxEdgeSize()) <= (1+eps)*float64(k) {
		return k, true
	}
	return 0, false
}

// KeepEdges returns the sub-hypergraph H' = (V, E') where E' consists of
// the edges whose indices appear in keep (in the given order). Vertex
// weights carry over. This is the H_{i+1} = H_i minus happy edges step of
// the Theorem 1.1 reduction.
func (h *Hypergraph) KeepEdges(keep []int32) (*Hypergraph, error) {
	edges := make([][]int32, 0, len(keep))
	for _, j := range keep {
		if j < 0 || int(j) >= h.M() {
			return nil, fmt.Errorf("hypergraph: KeepEdges index %d out of range [0,%d)", j, h.M())
		}
		edges = append(edges, h.edges[j])
	}
	sub, err := New(h.n, edges)
	if err != nil {
		return nil, err
	}
	sub.weights = h.weights // already normalised; shared because immutable
	return sub, nil
}

// Validate checks the representation invariants: sorted duplicate-free
// non-empty edges in range, and an incidence structure consistent with the
// edge list. It returns nil for every hypergraph produced by New.
func (h *Hypergraph) Validate() error {
	if h.weights != nil {
		if len(h.weights) != h.n {
			return fmt.Errorf("%w: %d weights for %d vertices", ErrWeightLength, len(h.weights), h.n)
		}
		for v, w := range h.weights {
			if w < 0 || w > MaxWeight {
				return fmt.Errorf("%w: weight %d of vertex %d", ErrBadWeight, w, v)
			}
		}
	}
	for j, e := range h.edges {
		if len(e) == 0 {
			return fmt.Errorf("%w: edge %d", ErrEmptyEdge, j)
		}
		for i, v := range e {
			if v < 0 || int(v) >= h.n {
				return fmt.Errorf("%w: edge %d vertex %d", ErrVertexRange, j, v)
			}
			if i > 0 && e[i-1] >= v {
				return fmt.Errorf("hypergraph: edge %d not strictly sorted", j)
			}
		}
	}
	count := 0
	for v := int32(0); int(v) < h.n; v++ {
		for i, j := range h.incidence[v] {
			if !h.EdgeContains(int(j), v) {
				return fmt.Errorf("hypergraph: incidence of vertex %d lists edge %d not containing it", v, j)
			}
			if i > 0 && h.incidence[v][i-1] >= j {
				return fmt.Errorf("hypergraph: incidence of vertex %d not strictly sorted", v)
			}
			count++
		}
	}
	if count != h.TotalEdgeSize() {
		return fmt.Errorf("hypergraph: incidence size %d != total edge size %d", count, h.TotalEdgeSize())
	}
	return nil
}

// String returns a short summary such as "hypergraph(n=10, m=4, |e|∈[2,3])".
func (h *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph(n=%d, m=%d, |e|∈[%d,%d])", h.n, h.M(), h.MinEdgeSize(), h.MaxEdgeSize())
}
