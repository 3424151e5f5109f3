package maxis

// greedy.go implements the heuristic oracles: min-degree greedy (meets the
// Caro–Wei bound), fixed-order greedy (the locality-1 SLOCAL greedy of the
// paper's introduction, run centrally), and random-permutation greedy.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"pslocal/internal/graph"
)

// GreedyMinDegree repeatedly selects a minimum-degree vertex of the
// remaining graph, adds it to the independent set, and deletes its closed
// neighbourhood. The result always has size at least the Caro–Wei bound
// Σ 1/(deg+1).
func GreedyMinDegree(g *graph.Graph) []int32 {
	n := g.N()
	removed := make([]bool, n)
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue over residual degrees with lazy deletion.
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	var out []int32
	remaining := n
	cursor := 0
	for remaining > 0 {
		// Find the lowest non-empty bucket entry whose recorded degree is
		// still current (lazy entries are skipped).
		var v int32 = -1
		for cursor <= maxDeg {
			b := buckets[cursor]
			if len(b) == 0 {
				cursor++
				continue
			}
			cand := b[len(b)-1]
			buckets[cursor] = b[:len(b)-1]
			if !removed[cand] && deg[cand] == cursor {
				v = cand
				break
			}
		}
		if v < 0 {
			break // only lazy entries left; cannot happen with consistent state
		}
		out = append(out, v)
		removed[v] = true
		remaining--
		// Delete N(v); decrement degrees of their still-present neighbours.
		g.ForEachNeighbor(v, func(u int32) bool {
			if removed[u] {
				return true
			}
			removed[u] = true
			remaining--
			g.ForEachNeighbor(u, func(w int32) bool {
				if !removed[w] {
					deg[w]--
					buckets[deg[w]] = append(buckets[deg[w]], w)
					if deg[w] < cursor {
						cursor = deg[w]
					}
				}
				return true
			})
			return true
		})
	}
	slices.Sort(out)
	return out
}

// GreedyOrder scans vertices in the given order and adds each vertex whose
// neighbours have not been added yet — exactly the locality-1 SLOCAL
// algorithm for MIS described in the paper's introduction. The order must
// be a permutation of 0..n-1; violations are reported via error.
func GreedyOrder(g *graph.Graph, order []int32) ([]int32, error) {
	if err := validateOrder(g, order); err != nil {
		return nil, err
	}
	return greedyOrderScan(g, order), nil
}

// greedyOrderScan scans a permutation of g's vertices with the dense
// kernel when g clears the density cutoff, the CSR walk otherwise. Both
// paths produce the identical set for any order.
func greedyOrderScan(g *graph.Graph, order []int32) []int32 {
	if !DenseEligible(g) {
		return greedyOrderList(g, order)
	}
	d := packDense(g)
	defer releaseDense(d)
	return greedyOrderDense(d, order)
}

// greedyOrderList is the CSR-walking order scan of a permutation.
func greedyOrderList(g *graph.Graph, order []int32) []int32 {
	inSet := make([]bool, g.N())
	var out []int32
	for _, v := range order {
		blocked := false
		g.ForEachNeighbor(v, func(u int32) bool {
			if inSet[u] {
				blocked = true
				return false
			}
			return true
		})
		if !blocked {
			inSet[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// validateOrder checks that order is a permutation of 0..n-1.
func validateOrder(g *graph.Graph, order []int32) error {
	n := g.N()
	if len(order) != n {
		return fmt.Errorf("maxis: order length %d, graph has %d nodes", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("maxis: order is not a permutation (offender %d)", v)
		}
		seen[v] = true
	}
	return nil
}

// GreedyRandomOrder runs GreedyOrder on a uniformly random permutation.
func GreedyRandomOrder(g *graph.Graph, rng *rand.Rand) []int32 {
	order := make([]int32, g.N())
	for i, p := range rng.Perm(g.N()) {
		order[i] = int32(p)
	}
	return greedyOrderScan(g, order)
}

// MinDegreeOracle adapts GreedyMinDegree to the Oracle interface.
type MinDegreeOracle struct{}

// Name implements Oracle.
func (MinDegreeOracle) Name() string { return "greedy-mindeg" }

// Solve implements Oracle. Weighted instances route to the weighted
// greedy (descending weight/(deg+1) order); unweighted ones keep the
// adaptive bucket-queue greedy unchanged.
func (MinDegreeOracle) Solve(g *graph.Graph) ([]int32, error) {
	if g.Weighted() {
		return GreedyWeighted(g), nil
	}
	return GreedyMinDegree(g), nil
}

// RandomOrderOracle adapts GreedyRandomOrder to the Oracle interface with a
// deterministic per-call seed sequence.
type RandomOrderOracle struct {
	// Seed initialises the oracle's private random stream.
	Seed int64
	rng  *rand.Rand
}

// Name implements Oracle.
func (o *RandomOrderOracle) Name() string { return "greedy-random" }

// Solve implements Oracle. On weighted instances the random permutation
// only breaks weight/(deg+1) ratio ties, so the scan still follows the
// weighted Caro–Wei order.
func (o *RandomOrderOracle) Solve(g *graph.Graph) ([]int32, error) {
	if o.rng == nil {
		o.rng = rand.New(rand.NewSource(o.Seed))
	}
	if g.Weighted() {
		pos := make([]int32, g.N())
		for i, p := range o.rng.Perm(g.N()) {
			pos[p] = int32(i)
		}
		return greedyOrderScan(g, weightedRatioOrder(g, pos)), nil
	}
	order := make([]int32, g.N())
	for i, p := range o.rng.Perm(g.N()) {
		order[i] = int32(p)
	}
	return greedyOrderScan(g, order), nil
}

// FirstFitOracle runs GreedyOrder on the identity permutation; it is the
// weakest reasonable oracle and a useful adversarial baseline.
type FirstFitOracle struct{}

// Name implements Oracle.
func (FirstFitOracle) Name() string { return "greedy-firstfit" }

// Solve implements Oracle. Weighted instances scan in the weighted
// Caro–Wei order instead of the identity permutation — first-fit over an
// arbitrary order forfeits the weighted guarantee entirely.
func (FirstFitOracle) Solve(g *graph.Graph) ([]int32, error) {
	if g.Weighted() {
		return GreedyWeighted(g), nil
	}
	order := make([]int32, g.N())
	for i := range order {
		order[i] = int32(i)
	}
	return greedyOrderScan(g, order), nil
}

// MinDegreeBitsetOracle adapts the dense min-degree kernel to the Oracle
// interface; it is registered as "greedy-mindeg-bitset". Its selection
// tie-break (smallest id among minimum-residual-degree vertices) differs
// from MinDegreeOracle's bucket queue, so the two are distinct registry
// members rather than one auto-routing oracle — both meet the Caro–Wei
// bound, and racing them in a portfolio is free diversity.
type MinDegreeBitsetOracle struct{}

// Name implements Oracle.
func (MinDegreeBitsetOracle) Name() string { return "greedy-mindeg-bitset" }

// Solve implements Oracle. Weighted instances route to the weighted
// greedy on the packed adjacency.
func (MinDegreeBitsetOracle) Solve(g *graph.Graph) ([]int32, error) {
	if g.Weighted() {
		return GreedyWeighted(g), nil
	}
	return GreedyMinDegreeBitset(g), nil
}

// ExactOracle adapts the exact solver to the Oracle interface (λ = 1).
type ExactOracle struct {
	// Options forwards solver options, e.g. a clique hint or budget.
	Options ExactOptions
}

// Name implements Oracle.
func (ExactOracle) Name() string { return "exact" }

// Solve implements Oracle.
func (o ExactOracle) Solve(g *graph.Graph) ([]int32, error) {
	return ExactOpts(g, o.Options)
}

// SolveContext implements ContextSolver: the branch-and-bound polls ctx
// and returns its error (with the best set so far) soon after
// cancellation. An explicit Options.Ctx wins over ctx.
func (o ExactOracle) SolveContext(ctx context.Context, g *graph.Graph) ([]int32, error) {
	opts := o.Options
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	return ExactOpts(g, opts)
}
