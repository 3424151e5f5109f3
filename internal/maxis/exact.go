package maxis

// exact.go implements the exact branch-and-bound maximum independent set
// solver (the λ = 1 oracle of Theorem 1.1). It combines
//
//   - degree-0/1 reduction rules (always-safe inclusions),
//   - a direct solver for the degree-2 residue (disjoint cycles),
//   - a matching-based upper bound α ≤ |V| − |M| for any matching M, and
//   - an optional clique-partition bound: conflict graphs G_k come with the
//     per-edge cliques of E_edge (Section 2 of the paper), which bound α by
//     the number of remaining cliques and make the solver fast exactly on
//     the graphs the reduction produces.
//
// On weighted instances (g.Weighted()) the same search maximises total
// vertex weight: the incumbent comparison, the prune test, and all three
// upper bounds switch to their weight-sum forms (Σ max weight per clique,
// active weight minus Σ min endpoint weight per matching edge, Σ max
// active weight per hint clique), the degree-1 rule only fires when the
// degree-1 vertex outweighs its neighbour, and the cycle shortcut is
// skipped — the search branches all the way down. Unweighted instances
// take exactly the original code paths.

import (
	"context"
	"fmt"
	"slices"

	"pslocal/internal/graph"
)

// ExactOptions tunes the exact solver.
type ExactOptions struct {
	// CliqueHint optionally assigns every node to a clique id (any dense or
	// sparse int32 ids). When set, the solver verifies the partition and
	// uses "number of distinct active cliques" as an additional upper
	// bound. The per-edge cliques of a conflict graph are the intended use.
	CliqueHint []int32
	// MaxBranchNodes bounds the search-tree size; 0 means unlimited. When
	// exceeded, Solve returns the best set found so far together with
	// ErrBudgetExceeded.
	MaxBranchNodes int64
	// Ctx cancels the search cooperatively: it is polled every
	// ctxPollInterval branch nodes and the search returns ctx's error with
	// the best set found so far. Nil never cancels.
	Ctx context.Context
}

// ctxPollInterval is how many branch nodes pass between context polls: a
// power of two so the check compiles to a mask, frequent enough that
// cancellation lands within microseconds on dense inputs.
const ctxPollInterval = 1024

// Exact returns a maximum independent set of g using default options.
func Exact(g *graph.Graph) ([]int32, error) {
	return ExactOpts(g, ExactOptions{})
}

// Alpha returns the independence number α(g).
func Alpha(g *graph.Graph) (int, error) {
	set, err := Exact(g)
	if err != nil {
		return 0, err
	}
	return len(set), nil
}

// ExactOpts returns a maximum independent set of g under the given options.
// With a budget, the returned set is the best found when the budget runs
// out and the error is ErrBudgetExceeded.
func ExactOpts(g *graph.Graph, opts ExactOptions) ([]int32, error) {
	n := g.N()
	if n == 0 {
		return nil, nil
	}
	s := &exactState{
		n:      n,
		adj:    make([]bitset, n),
		budget: opts.MaxBranchNodes,
		ctx:    opts.Ctx,
	}
	if g.Weighted() {
		s.weighted = true
		s.w = g.AppendWeights(make([]int64, 0, n))
	}
	// Row bitsets are views into one pooled pack, returned when the
	// search ends.
	d := packDense(g)
	defer releaseDense(d)
	for v := 0; v < n; v++ {
		s.adj[v] = d.row(int32(v))
	}
	if opts.CliqueHint != nil {
		if len(opts.CliqueHint) != n {
			return nil, fmt.Errorf("%w: hint length %d, graph has %d nodes", ErrBadHint, len(opts.CliqueHint), n)
		}
		if err := validateCliqueHint(g, opts.CliqueHint); err != nil {
			return nil, err
		}
		s.hint, s.hintStamp = compressHint(opts.CliqueHint)
		if s.weighted {
			s.hintMax = make([]int64, len(s.hintStamp))
		}
	}
	active := newBitset(n)
	for v := 0; v < n; v++ {
		active.set(int32(v))
	}
	s.scratch = newBitset(n)
	s.solve(active)
	slices.Sort(s.best)
	if s.ctxErr != nil {
		return s.best, s.ctxErr
	}
	if s.exceeded {
		return s.best, ErrBudgetExceeded
	}
	return s.best, nil
}

// validateCliqueHint checks that nodes sharing a hint id are pairwise
// adjacent.
func validateCliqueHint(g *graph.Graph, hint []int32) error {
	byID := map[int32][]int32{}
	for v, id := range hint {
		byID[id] = append(byID[id], int32(v))
	}
	for id, members := range byID {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if !g.HasEdge(members[i], members[j]) {
					return fmt.Errorf("%w: nodes %d and %d share id %d but are not adjacent",
						ErrBadHint, members[i], members[j], id)
				}
			}
		}
	}
	return nil
}

// compressHint renumbers arbitrary clique ids to 0..k-1 and allocates the
// generation-stamp array used for O(1)-amortised distinct counting.
func compressHint(hint []int32) (compressed []int32, stamp []int64) {
	next := int32(0)
	remap := map[int32]int32{}
	compressed = make([]int32, len(hint))
	for v, id := range hint {
		c, ok := remap[id]
		if !ok {
			c = next
			remap[id] = c
			next++
		}
		compressed[v] = c
	}
	return compressed, make([]int64, next)
}

type exactState struct {
	n         int
	adj       []bitset
	best      []int32
	cur       []int32
	weighted  bool    // maximise Σ w over cur/best instead of cardinality
	w         []int64 // effective vertex weights; nil when !weighted
	curW      int64   // Σ w over s.cur, maintained incrementally
	bestW     int64   // Σ w over s.best
	budget    int64   // remaining branch nodes; <= 0 with budgeted=true means stop
	exceeded  bool
	ctx       context.Context
	ctxTick   int64 // branch nodes since the last context poll
	ctxErr    error
	hint      []int32
	hintStamp []int64
	hintMax   []int64 // per-clique max active weight; parallel to hintStamp
	hintGen   int64
	scratch   bitset
	scratch2  bitset
	scratch3  bitset
}

// borrowCopy copies src into the reusable scratch3 buffer and returns it.
// The bound helpers consume the copy fully before the next borrowCopy, so
// one buffer serves them all — they used to clone() per branch node.
func (s *exactState) borrowCopy(src bitset) bitset {
	if s.scratch3 == nil {
		s.scratch3 = newBitset(s.n)
	}
	copy(s.scratch3, src)
	return s.scratch3
}

// solve explores the branch rooted at the given active set. It owns
// `active` (callers pass clones) and restores s.cur before returning.
func (s *exactState) solve(active bitset) {
	if s.exceeded || s.ctxErr != nil {
		return
	}
	if s.ctx != nil {
		s.ctxTick++
		if s.ctxTick&(ctxPollInterval-1) == 0 {
			if err := s.ctx.Err(); err != nil {
				s.ctxErr = err
				return
			}
		}
	}
	if s.budget != 0 {
		s.budget--
		if s.budget == 0 {
			s.exceeded = true
			return
		}
	}
	curMark := len(s.cur)
	curWMark := s.curW
	defer func() { s.cur, s.curW = s.cur[:curMark], curWMark }()

	maxV, maxDeg := s.reduceAndMaxDegree(active)

	if !active.any() {
		s.maybeRecord()
		return
	}

	// After reduction every active node has active-degree >= 2. If the max
	// active degree is 2 the residue is a disjoint union of cycles; solve
	// it directly. Weighted searches skip the shortcut (alternate vertices
	// are not weight-optimal and degree-1 vertices can survive the gated
	// reduction) and branch all the way down instead.
	if !s.weighted && maxDeg <= 2 {
		s.solveCycles(active)
		s.maybeRecord()
		return
	}

	// Bound: α(active) is at most the size of any clique cover of the
	// active subgraph, and at most |active| − |matching| for any matching.
	// The greedy clique cover discovers the per-edge cliques of conflict
	// graphs (Section 2, E_edge) because their blocks are contiguous in id
	// order; the matching bound is stronger on sparse residues. Weighted
	// searches use the weight-sum forms of the same three bounds.
	if s.weighted {
		ub := s.weightedCliqueCoverBound(active)
		if mb := s.weightedMatchingBound(active); mb < ub {
			ub = mb
		}
		if s.hint != nil {
			if hb := s.weightedHintBound(active); hb < ub {
				ub = hb
			}
		}
		if s.curW+ub <= s.bestW {
			return
		}
	} else {
		ub := s.greedyCliqueCoverSize(active)
		if mb := active.count() - s.greedyMatchingSize(active); mb < ub {
			ub = mb
		}
		if s.hint != nil {
			if hb := s.distinctActiveCliques(active); hb < ub {
				ub = hb
			}
		}
		if len(s.cur)+ub <= len(s.best) {
			return
		}
	}

	// Branch on the max-degree vertex; include first for earlier strong
	// incumbents.
	include := active.clone()
	include.andNotInPlace(s.adj[maxV])
	include.clear(maxV)
	s.cur = append(s.cur, maxV)
	if s.weighted {
		s.curW += s.w[maxV]
	}
	s.solve(include)
	s.cur = s.cur[:len(s.cur)-1]
	if s.weighted {
		s.curW -= s.w[maxV]
	}

	exclude := active // safe: we own it and no longer need the original
	exclude.clear(maxV)
	s.solve(exclude)
}

// reduceAndMaxDegree applies the degree-0 and degree-1 rules until none
// fires, extending s.cur with the forced inclusions and shrinking active
// in place. On weighted searches the degree-1 rule is gated on the
// degree-1 vertex outweighing its neighbour — the exchange argument
// (swap u for v) needs w(v) ≥ w(u); an outweighed degree-1 vertex stays
// active and is resolved by branching. The returned vertex and degree are
// the active maximum, taken from the final sweep — the one where no rule
// fired, so every degree it computed is still current. Fusing the two
// saves a whole popcount sweep per branch node over separate reduce +
// maxDegree passes.
func (s *exactState) reduceAndMaxDegree(active bitset) (maxV int32, maxDeg int) {
	for {
		changed := false
		maxV, maxDeg = -1, -1
		active.forEach(func(v int32) bool {
			if !active.has(v) {
				// forEach snapshots one word at a time; v may have been
				// cleared by an earlier rule firing in the same word.
				return true
			}
			d := countAnd(s.adj[v], active)
			switch d {
			case 0:
				s.cur = append(s.cur, v)
				if s.weighted {
					s.curW += s.w[v]
				}
				active.clear(v)
				changed = true
			case 1:
				u := firstAnd(s.adj[v], active)
				if s.weighted && s.w[v] < s.w[u] {
					if d > maxDeg {
						maxDeg, maxV = d, v
					}
					return true
				}
				s.cur = append(s.cur, v)
				if s.weighted {
					s.curW += s.w[v]
				}
				active.clear(v)
				active.clear(u)
				changed = true
			default:
				if d > maxDeg {
					maxDeg, maxV = d, v
				}
			}
			return true
		})
		if !changed {
			return maxV, maxDeg
		}
	}
}

// solveCycles optimally solves the all-degrees-2 residue (disjoint cycles):
// a cycle of length L contributes floor(L/2) alternate vertices.
func (s *exactState) solveCycles(active bitset) {
	remaining := s.borrowCopy(active)
	for {
		start := remaining.first()
		if start < 0 {
			return
		}
		// Walk the cycle from start, picking every other vertex but never
		// the last one if the length is odd (positions 0,2,...,2⌊L/2⌋−2).
		var cycle []int32
		prev := int32(-1)
		v := start
		for {
			cycle = append(cycle, v)
			remaining.clear(v)
			next := int32(-1)
			andInto(s.scratch, s.adj[v], active)
			s.scratch.forEach(func(u int32) bool {
				if u != prev && remaining.has(u) {
					next = u
					return false
				}
				return true
			})
			if next < 0 {
				break
			}
			prev = v
			v = next
		}
		take := len(cycle) / 2
		for i := 0; i < take; i++ {
			s.cur = append(s.cur, cycle[2*i])
		}
	}
}

// greedyMatchingSize returns the size of a maximal matching of the active
// subgraph; α ≤ |active| − matching size.
func (s *exactState) greedyMatchingSize(active bitset) int {
	unmatched := s.borrowCopy(active)
	size := 0
	for {
		v := unmatched.first()
		if v < 0 {
			return size
		}
		unmatched.clear(v)
		u := firstAnd(s.adj[v], unmatched)
		if u >= 0 {
			unmatched.clear(u)
			size++
		}
	}
}

// greedyCliqueCoverSize covers the active nodes with greedily grown
// cliques and returns their count, an upper bound on α(active): an
// independent set takes at most one node per clique. Each node is
// processed exactly once, so the cost is O(n) bitset operations.
func (s *exactState) greedyCliqueCoverSize(active bitset) int {
	remaining := s.borrowCopy(active)
	cand := s.scratch2
	if cand == nil {
		cand = newBitset(s.n)
		s.scratch2 = cand
	}
	cover := 0
	for {
		v := remaining.first()
		if v < 0 {
			return cover
		}
		cover++
		remaining.clear(v)
		// cand = remaining nodes adjacent to every clique member so far.
		andInto(cand, remaining, s.adj[v])
		for {
			u := cand.first()
			if u < 0 {
				break
			}
			remaining.clear(u)
			cand.clear(u)
			for i := range cand {
				cand[i] &= s.adj[u][i]
			}
		}
	}
}

// distinctActiveCliques counts distinct clique-hint ids among active nodes
// using a generation stamp to avoid clearing.
func (s *exactState) distinctActiveCliques(active bitset) int {
	s.hintGen++
	count := 0
	active.forEach(func(v int32) bool {
		id := s.hint[v]
		if s.hintStamp[id] != s.hintGen {
			s.hintStamp[id] = s.hintGen
			count++
		}
		return true
	})
	return count
}

// weightedCliqueCoverBound covers the active nodes with greedily grown
// cliques and returns Σ (max weight per clique), an upper bound on the
// max weight independent set: an independent set takes at most one node
// per clique, worth at most that clique's heaviest member.
func (s *exactState) weightedCliqueCoverBound(active bitset) int64 {
	remaining := s.borrowCopy(active)
	cand := s.scratch2
	if cand == nil {
		cand = newBitset(s.n)
		s.scratch2 = cand
	}
	bound := int64(0)
	for {
		v := remaining.first()
		if v < 0 {
			return bound
		}
		maxW := s.w[v]
		remaining.clear(v)
		andInto(cand, remaining, s.adj[v])
		for {
			u := cand.first()
			if u < 0 {
				break
			}
			if s.w[u] > maxW {
				maxW = s.w[u]
			}
			remaining.clear(u)
			cand.clear(u)
			for i := range cand {
				cand[i] &= s.adj[u][i]
			}
		}
		bound += maxW
	}
}

// weightedMatchingBound returns w(active) − Σ min(w_u, w_v) over a maximal
// matching: every matching edge loses at least its lighter endpoint from
// any independent set, and matching edges are disjoint.
func (s *exactState) weightedMatchingBound(active bitset) int64 {
	total := int64(0)
	active.forEach(func(v int32) bool {
		total += s.w[v]
		return true
	})
	unmatched := s.borrowCopy(active)
	for {
		v := unmatched.first()
		if v < 0 {
			return total
		}
		unmatched.clear(v)
		u := firstAnd(s.adj[v], unmatched)
		if u >= 0 {
			unmatched.clear(u)
			if s.w[v] < s.w[u] {
				total -= s.w[v]
			} else {
				total -= s.w[u]
			}
		}
	}
}

// weightedHintBound returns Σ (max active weight per hint clique), the
// weight-sum form of distinctActiveCliques, sharing its generation stamp.
func (s *exactState) weightedHintBound(active bitset) int64 {
	s.hintGen++
	bound := int64(0)
	active.forEach(func(v int32) bool {
		id, w := s.hint[v], s.w[v]
		if s.hintStamp[id] != s.hintGen {
			s.hintStamp[id] = s.hintGen
			s.hintMax[id] = w
			bound += w
		} else if w > s.hintMax[id] {
			bound += w - s.hintMax[id]
			s.hintMax[id] = w
		}
		return true
	})
	return bound
}

// maybeRecord promotes the current selection to the incumbent if better:
// heavier on weighted searches, larger otherwise.
func (s *exactState) maybeRecord() {
	if s.weighted {
		if s.curW > s.bestW {
			s.bestW = s.curW
			s.best = append(s.best[:0], s.cur...)
		}
		return
	}
	if len(s.cur) > len(s.best) {
		s.best = append(s.best[:0], s.cur...)
	}
}
