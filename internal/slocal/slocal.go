// Package slocal simulates the SLOCAL model of Ghaffari, Kuhn and Maus
// [GKM17], the model in which the paper's completeness result lives. An
// SLOCAL algorithm with locality r processes the nodes in an arbitrary
// order; when node v is processed it sees the graph topology and the
// previously written states inside its r-hop ball B(v, r) and writes its
// own output/state, which later nodes may read.
//
// The simulator measures locality instead of assuming it: a node's view
// starts empty and grows only as the algorithm requests larger balls, and
// the runner reports the maximum effective radius any node used.
//
// The package hosts the SLOCAL algorithms the paper discusses: the
// locality-1 greedy MIS of the introduction, greedy (Δ+1)-colouring, the
// ball-carving (1+δ)-approximate MaxIS that realises the containment
// direction of Theorem 1.1, and the network decomposition underlying the
// class P-SLOCAL.
package slocal

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"pslocal/internal/graph"
)

// ErrBadOrder reports a processing order that is not a permutation of the
// node set.
var ErrBadOrder = errors.New("slocal: order is not a permutation of the nodes")

// marker is an epoch-stamped membership set over a fixed node universe:
// bumping the generation invalidates every mark in O(1), so BFS passes
// reuse one stamp array instead of allocating a map per pass.
type marker struct {
	stamp []uint32
	epoch uint32
}

func newMarker(n int) *marker {
	// epoch starts at 1 so the zeroed stamp array marks nothing.
	return &marker{stamp: make([]uint32, n), epoch: 1}
}

// next starts a fresh generation; all previous marks become invisible.
func (m *marker) next() {
	m.epoch++
	if m.epoch == 0 { // uint32 wrap: clear stamps so stale marks cannot alias
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *marker) marked(v int32) bool { return m.stamp[v] == m.epoch }
func (m *marker) mark(v int32)        { m.stamp[v] = m.epoch }

// viewScratch is the reusable flat-array BFS state shared by every View
// of one Run: epoch-stamped distances, the discovery order and per-level
// offsets replace the per-node map[int32]int32 the original
// implementation allocated for each processed node.
type viewScratch struct {
	mk       *marker
	dist     []int32 // dist[u] is valid iff mk.marked(u)
	visited  []int32 // discovery order; distances are non-decreasing
	levelEnd []int   // levelEnd[d] = |{u in visited : dist[u] <= d}|
	frontier []int32
	next     []int32
}

func newViewScratch(n int) *viewScratch {
	return &viewScratch{mk: newMarker(n), dist: make([]int32, n)}
}

// View is what a node observes while being processed. All information
// access goes through the view so the runner can account for the locality
// actually used. A View is only valid during its Process call: the runner
// recycles the underlying scratch for the next node in the order.
type View struct {
	g        *graph.Graph
	center   int32
	states   []any
	s        *viewScratch
	explored int  // levels fully explored so far
	finished bool // BFS exhausted the component
	maxUsed  int  // effective locality consumed
}

func newView(g *graph.Graph, center int32, states []any, s *viewScratch) *View {
	w := &View{g: g, states: states, s: s}
	w.reset(center)
	return w
}

// reset re-centres the view on the next processed node, recycling the
// scratch arrays instead of allocating fresh BFS state.
func (w *View) reset(center int32) {
	s := w.s
	s.mk.next()
	s.visited = append(s.visited[:0], center)
	s.levelEnd = append(s.levelEnd[:0], 1)
	s.frontier = append(s.frontier[:0], center)
	s.mk.mark(center)
	s.dist[center] = 0
	w.center = center
	w.explored = 0
	w.finished = false
	w.maxUsed = 0
}

// Center returns the node being processed.
func (w *View) Center() int32 { return w.center }

// extend grows the explored ball to radius r (or until the component is
// exhausted) and charges the effective radius to the locality account.
func (w *View) extend(r int) {
	s := w.s
	for w.explored < r && !w.finished {
		d := int32(w.explored + 1)
		s.next = s.next[:0]
		for _, v := range s.frontier {
			w.g.ForEachNeighbor(v, func(u int32) bool {
				if !s.mk.marked(u) {
					s.mk.mark(u)
					s.dist[u] = d
					s.visited = append(s.visited, u)
					s.next = append(s.next, u)
				}
				return true
			})
		}
		s.frontier, s.next = s.next, s.frontier
		if len(s.frontier) == 0 {
			w.finished = true
			break
		}
		w.explored++
		s.levelEnd = append(s.levelEnd, len(s.visited))
	}
	if w.explored > w.maxUsed {
		w.maxUsed = w.explored
	}
}

// BallNodes returns the nodes of B(center, r) in ascending order,
// extending the explored region as needed. Requesting a radius beyond the
// component's extent charges only the effective (exhausted) radius.
func (w *View) BallNodes(r int) []int32 {
	if r < 0 {
		return nil
	}
	w.extend(r)
	eff := r
	if eff > w.explored {
		eff = w.explored
	}
	// Discovery order is sorted by distance, so B(center, eff) is a prefix.
	prefix := w.s.visited[:w.s.levelEnd[eff]]
	nodes := make([]int32, len(prefix))
	copy(nodes, prefix)
	slices.Sort(nodes)
	return nodes
}

// BallGraph returns the subgraph induced by B(center, r) together with the
// mapping orig[newID] = oldID.
func (w *View) BallGraph(r int) (*graph.Graph, []int32, error) {
	nodes := w.BallNodes(r)
	return graph.Induced(w.g, nodes)
}

// State returns the state previously written by node u. ok is false when u
// lies outside the explored ball (the algorithm must request a larger ball
// first) or when u has not been processed yet.
func (w *View) State(u int32) (state any, ok bool) {
	if u < 0 || int(u) >= len(w.states) || !w.s.mk.marked(u) {
		return nil, false
	}
	if w.states[u] == nil {
		return nil, false
	}
	return w.states[u], true
}

// Dist returns the distance from the centre to u when u is inside the
// explored ball.
func (w *View) Dist(u int32) (int, bool) {
	if u < 0 || int(u) >= len(w.s.dist) || !w.s.mk.marked(u) {
		return 0, false
	}
	return int(w.s.dist[u]), true
}

// Radius returns the effective locality consumed so far.
func (w *View) Radius() int { return w.maxUsed }

// Process computes node v's output/state from its view. The returned value
// is stored as v's state, readable by later-processed nodes. A nil return
// stores nothing (indistinguishable from "unprocessed" to later readers).
type Process func(v int32, view *View) any

// Result reports a completed SLOCAL run.
type Result struct {
	// Outputs holds each node's stored state, indexed by node id.
	Outputs []any
	// PerNodeLocality is the effective radius each node consumed.
	PerNodeLocality []int
	// Locality is the maximum entry of PerNodeLocality — the algorithm's
	// measured SLOCAL locality on this input.
	Locality int
}

// Run processes the nodes of g in the given order. One flat-array scratch
// is shared across the whole order, so a full pass allocates O(n) once
// instead of a fresh BFS map per processed node; the *View handed to proc
// must not be retained past the call.
func Run(g *graph.Graph, order []int32, proc Process) (*Result, error) {
	return RunCtx(nil, g, order, proc)
}

// RunCtx is Run with cooperative cancellation: ctx is checked before every
// processed node, so an abandoned simulation stops within one Process
// call. A nil ctx never cancels.
func RunCtx(ctx context.Context, g *graph.Graph, order []int32, proc Process) (*Result, error) {
	if err := checkPermutation(g.N(), order); err != nil {
		return nil, err
	}
	states := make([]any, g.N())
	res := &Result{
		Outputs:         states,
		PerNodeLocality: make([]int, g.N()),
	}
	scratch := newViewScratch(g.N())
	var view *View
	for _, v := range order {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("slocal: run cancelled at node %d: %w", v, err)
			}
		}
		if view == nil {
			view = newView(g, v, states, scratch)
		} else {
			view.reset(v)
		}
		states[v] = proc(v, view)
		res.PerNodeLocality[v] = view.Radius()
		if view.Radius() > res.Locality {
			res.Locality = view.Radius()
		}
	}
	return res, nil
}

// IdentityOrder returns the order 0,1,...,n-1.
func IdentityOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// checkPermutation validates that order is a permutation of 0..n-1.
func checkPermutation(n int, order []int32) error {
	if len(order) != n {
		return fmt.Errorf("%w: length %d, want %d", ErrBadOrder, len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("%w: offending entry %d", ErrBadOrder, v)
		}
		seen[v] = true
	}
	return nil
}
