// Package graph provides the simple-undirected-graph substrate used by every
// other package in this repository: conflict graphs (paper Section 2), the
// LOCAL and SLOCAL model simulators (paper Section 1), and the maximum
// independent set solvers that instantiate the approximation oracle of
// Theorem 1.1.
//
// Graphs are immutable once built. Nodes are dense int32 identifiers
// 0..N()-1 and adjacency is stored in compressed sparse row (CSR) form with
// sorted neighbour lists, so HasEdge is O(log deg) and iteration is
// allocation free.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Errors returned by Builder.Build and graph constructors.
var (
	// ErrNodeRange reports an endpoint outside 0..n-1.
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrSelfLoop reports an edge {v,v}; simple graphs forbid loops.
	ErrSelfLoop = errors.New("graph: self loop")
	// ErrNegativeSize reports a negative node count.
	ErrNegativeSize = errors.New("graph: negative node count")
	// ErrDuplicateNode reports a repeated node in a node-list argument.
	ErrDuplicateNode = errors.New("graph: duplicate node")
)

// Graph is an immutable simple undirected graph.
//
// The zero value is the empty graph on zero nodes and is ready to use.
type Graph struct {
	offsets []int32 // len N()+1; adjacency of v is targets[offsets[v]:offsets[v+1]]
	targets []int32 // concatenated sorted neighbour lists, both directions
	weights []int64 // optional per-vertex weights; nil means all-unit (see weights.go)
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.targets) / 2 }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns a fresh copy of v's sorted neighbour list. The caller
// owns the returned slice. For allocation-free iteration use ForEachNeighbor.
func (g *Graph) Neighbors(v int32) []int32 {
	view := g.targets[g.offsets[v]:g.offsets[v+1]]
	out := make([]int32, len(view))
	copy(out, view)
	return out
}

// AppendNeighbors appends v's sorted neighbours to dst and returns the
// extended slice, avoiding an allocation when dst has capacity.
func (g *Graph) AppendNeighbors(dst []int32, v int32) []int32 {
	return append(dst, g.targets[g.offsets[v]:g.offsets[v+1]]...)
}

// ForEachNeighbor calls fn for every neighbour of v in ascending order.
// It stops early if fn returns false.
func (g *Graph) ForEachNeighbor(v int32, fn func(u int32) bool) {
	for _, u := range g.targets[g.offsets[v]:g.offsets[v+1]] {
		if !fn(u) {
			return
		}
	}
}

// HasEdge reports whether {u,v} is an edge. HasEdge(v,v) is always false.
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	// Search the shorter list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.targets[g.offsets[u]:g.offsets[u+1]]
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// ForEachEdge calls fn once per undirected edge with u < v, in ascending
// (u, v) order. It stops early if fn returns false.
func (g *Graph) ForEachEdge(fn func(u, v int32) bool) {
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.targets[g.offsets[u]:g.offsets[u+1]] {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// Edges returns all undirected edges as [2]int32{u, v} pairs with u < v.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.M())
	g.ForEachEdge(func(u, v int32) bool {
		out = append(out, [2]int32{u, v})
		return true
	})
	return out
}

// DegreeHistogram returns a slice h where h[d] counts nodes of degree d.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		h[g.Degree(int32(v))]++
	}
	return h
}

// Validate checks the structural invariants of the CSR representation:
// monotone offsets, sorted duplicate-free neighbour lists, no self loops,
// and symmetry. It returns nil for every graph produced by Builder.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.offsets) > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.weights != nil {
		if len(g.weights) != n {
			return fmt.Errorf("%w: %d weights for %d nodes", ErrWeightLength, len(g.weights), n)
		}
		for v, w := range g.weights {
			if w < 0 || w > MaxWeight {
				return fmt.Errorf("%w: weight %d of node %d", ErrBadWeight, w, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		if lo > hi {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		adj := g.targets[lo:hi]
		for i, u := range adj {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("%w: neighbour %d of node %d", ErrNodeRange, u, v)
			}
			if int(u) == v {
				return fmt.Errorf("%w: node %d", ErrSelfLoop, v)
			}
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			if !g.HasEdge(u, int32(v)) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v, u)
			}
		}
	}
	return nil
}

// String returns a short human-readable summary, e.g. "graph(n=5, m=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}

// Equal reports whether a and b are the same graph: the same node count,
// identical adjacency, and identical vertex weights. Builder canonicalises
// the CSR (sorted, duplicate-free neighbour lists) and the weight vector
// (all-unit collapses to nil), so structural equality is exactly
// representation equality; the I/O round-trip tests rely on this.
func Equal(a, b *Graph) bool {
	if a.N() != b.N() {
		return false
	}
	if !slices.Equal(a.weights, b.weights) {
		return false
	}
	if a.N() == 0 {
		return true
	}
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.targets, b.targets)
}

// Builder accumulates edges (and optional vertex weights, see weights.go)
// and produces an immutable Graph. Parallel edges are merged silently;
// self loops, out-of-range endpoints and bad weights surface as errors
// from Build. A Builder must be created with NewBuilder.
type Builder struct {
	n            int
	us           []int32
	vs           []int32
	errs         []error
	weights      []int64 // nil until SetWeight/SetWeights; all-unit normalised away at Build
	badWeightLen bool    // SetWeights saw a wrong-length vector; reported at Build
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// EdgeCapacityHint grows the internal edge buffers so at least m further
// AddEdge calls proceed without reallocation. Readers that know their
// edge count up front (the graphio parsers) use it to keep the emission
// loop allocation-lean.
func (b *Builder) EdgeCapacityHint(m int) {
	if m <= 0 {
		return
	}
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
}

// AddEdge records the undirected edge {u,v}. Errors are deferred to Build so
// generators can add edges without per-call error handling.
func (b *Builder) AddEdge(u, v int32) {
	switch {
	case b.n < 0:
		// Build reports ErrNegativeSize; nothing to record.
	case u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n:
		b.errs = append(b.errs, fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrNodeRange, u, v, b.n))
	case u == v:
		b.errs = append(b.errs, fmt.Errorf("%w: node %d", ErrSelfLoop, u))
	default:
		b.us = append(b.us, u)
		b.vs = append(b.vs, v)
	}
}

// MustBuild is Build for statically correct construction sites (generators,
// tests); it panics on error, which only a programming bug can trigger there.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int32) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Complement returns the complement graph: {u,v} is an edge of the result
// iff u != v and {u,v} is not an edge of g. Vertex weights carry over
// unchanged. Quadratic in n; intended for small graphs (tests and
// exact-solver cross-checks).
func Complement(g *Graph) *Graph {
	n := g.N()
	b := NewBuilder(n)
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if !g.HasEdge(u, v) {
				b.AddEdge(u, v)
			}
		}
	}
	b.SetWeights(g.weights)
	return b.MustBuild()
}

// Union returns the disjoint union of a and b; nodes of b are shifted by
// a.N(). When either side is weighted the result carries the concatenated
// weight vectors (unit weights filling the unweighted side).
func Union(a, b *Graph) *Graph {
	shift := int32(a.N())
	bl := NewBuilder(a.N() + b.N())
	a.ForEachEdge(func(u, v int32) bool { bl.AddEdge(u, v); return true })
	b.ForEachEdge(func(u, v int32) bool { bl.AddEdge(u+shift, v+shift); return true })
	if a.Weighted() || b.Weighted() {
		ws := a.AppendWeights(make([]int64, 0, a.N()+b.N()))
		bl.SetWeights(b.AppendWeights(ws))
	}
	return bl.MustBuild()
}
