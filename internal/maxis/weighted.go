package maxis

// weighted.go implements the vertex-weighted MaxIS objective across the
// oracle suite. Weights arrive on the graph itself (graph.Weighted());
// there is no weighted "mode" — every oracle branches on the instance, and
// unweighted instances take exactly the pre-weights code paths, so the
// nil-weights contract of internal/graph/weights.go holds end to end.
//
// The weighted greedy replaces the degree orderings with one static order
// by descending weight/(degree+1) — the weighted Caro–Wei order, which
// guarantees Σ_v w(v)/(deg(v)+1) in total weight by the same argument as
// the unweighted bound. Comparisons use the integer cross-product
// w(u)·(deg(v)+1) vs w(v)·(deg(u)+1); with weights capped at
// graph.MaxWeight both sides stay below 2^62, so the order needs no
// floating point and no overflow checks.

import (
	"fmt"
	"sort"

	"pslocal/internal/graph"
)

// SetWeight returns the total weight of nodes under g's vertex weights:
// Σ_v w(v), which equals len(nodes) on unweighted graphs. It never
// allocates, so weight reporting rides the zero-allocation serve path.
func SetWeight(g *graph.Graph, nodes []int32) int64 {
	if !g.Weighted() {
		return int64(len(nodes))
	}
	total := int64(0)
	for _, v := range nodes {
		total += g.Weight(v)
	}
	return total
}

// VerifyWeighted asserts that nodes is an independent set of g whose total
// weight equals reported — the invariant every weight-aware oracle result
// must satisfy. It returns nil when both hold; tests use it as the single
// checker for weighted solver output.
func VerifyWeighted(g *graph.Graph, nodes []int32, reported int64) error {
	if !IsIndependentSet(g, nodes) {
		return fmt.Errorf("maxis: set of %d nodes is not independent", len(nodes))
	}
	if w := SetWeight(g, nodes); w != reported {
		return fmt.Errorf("maxis: set weight %d, reported %d", w, reported)
	}
	return nil
}

// GreedyWeighted runs the weighted greedy: scan vertices in descending
// weight/(degree+1) order (ties to the smaller id) and keep each vertex
// none of whose neighbours was kept. The resulting independent set has
// total weight at least the weighted Caro–Wei bound Σ w(v)/(deg(v)+1).
// Dense graphs use the packed bitset scan.
func GreedyWeighted(g *graph.Graph) []int32 {
	return greedyOrderScan(g, weightedRatioOrder(g, nil))
}

// weightedRatioOrder returns the vertices sorted by descending
// weight/(deg+1). Ties break by ascending tie[v] when tie is non-nil
// (greedy-random passes its permutation positions), ascending id
// otherwise, so the order — and with it every weighted greedy result —
// is deterministic.
func weightedRatioOrder(g *graph.Graph, tie []int32) []int32 {
	n := g.N()
	order := make([]int32, n)
	w := g.AppendWeights(make([]int64, 0, n))
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		order[v] = int32(v)
		deg[v] = int64(g.Degree(int32(v))) + 1
	}
	sort.Slice(order, func(a, b int) bool {
		u, v := order[a], order[b]
		lhs, rhs := w[u]*deg[v], w[v]*deg[u]
		if lhs != rhs {
			return lhs > rhs
		}
		if tie != nil && tie[u] != tie[v] {
			return tie[u] < tie[v]
		}
		return u < v
	})
	return order
}

// bitsetWeight sums w over the set bits of b.
func bitsetWeight(b bitset, w []int64) int64 {
	total := int64(0)
	b.forEach(func(v int32) bool {
		total += w[v]
		return true
	})
	return total
}
