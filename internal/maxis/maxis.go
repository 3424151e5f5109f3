// Package maxis implements the maximum-independent-set solver suite that
// instantiates the λ-approximation oracle of Theorem 1.1: an exact
// branch-and-bound solver (λ = 1), several greedy heuristics, and the
// Ramsey-based clique-removal algorithm of Boppana and Halldórsson.
//
// All solvers consume the immutable graphs of internal/graph and return
// independent sets as ascending []int32 node lists. Vertex-weighted
// instances (graph.Weighted()) are first-class: every oracle maximises
// total set weight on them (see weighted.go), while unweighted instances
// take exactly the cardinality code paths.
package maxis

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"pslocal/internal/graph"
)

// Errors returned by solvers.
var (
	// ErrBudgetExceeded reports that the exact solver ran out of its branch
	// budget; the returned set is the best found so far (an anytime result),
	// not necessarily optimal.
	ErrBudgetExceeded = errors.New("maxis: branch budget exceeded")
	// ErrBadHint reports a CliqueHint that is not a clique partition.
	ErrBadHint = errors.New("maxis: clique hint is not a clique partition")
)

// Oracle is a maximum-independent-set approximation algorithm, the
// abstraction the Theorem 1.1 reduction is parameterised by. Solve must
// return an independent set of g (verified by callers in tests); it should
// return a non-empty set whenever g has at least one node.
type Oracle interface {
	// Name identifies the oracle in experiment tables.
	Name() string
	// Solve returns an independent set of g.
	Solve(g *graph.Graph) ([]int32, error)
}

// ContextSolver is implemented by oracles whose Solve supports cooperative
// cancellation (the exact branch-and-bound, the portfolio). OracleSolve
// prefers this interface when the caller carries a context.
type ContextSolver interface {
	// SolveContext is Solve observing ctx: a long-running search returns
	// ctx.Err() (possibly wrapped) soon after cancellation.
	SolveContext(ctx context.Context, g *graph.Graph) ([]int32, error)
}

// OracleSolve runs o on g under ctx: a ContextSolver solves with
// cooperative cancellation, any other oracle gets a cancellation check
// before it starts. A nil ctx never cancels.
func OracleSolve(ctx context.Context, o Oracle, g *graph.Graph) ([]int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cs, ok := o.(ContextSolver); ok {
		return cs.SolveContext(ctx, g)
	}
	return o.Solve(g)
}

// IsIndependentSet reports whether nodes is an independent set of g
// (pairwise non-adjacent, in range, duplicate-free). It marks the set in
// a []bool, checking range and repeats as it goes, then walks each
// member's neighbours: O(n + Σ deg(nodes)).
func IsIndependentSet(g *graph.Graph, nodes []int32) bool {
	in := make([]bool, g.N())
	for _, v := range nodes {
		if v < 0 || int(v) >= g.N() || in[v] {
			return false
		}
		in[v] = true
	}
	for _, v := range nodes {
		bad := false
		g.ForEachNeighbor(v, func(u int32) bool {
			bad = in[u]
			return !bad
		})
		if bad {
			return false
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether nodes is an inclusion-maximal
// independent set (an MIS in the paper's terminology): independent, and
// every node outside has a neighbour inside.
func IsMaximalIndependentSet(g *graph.Graph, nodes []int32) bool {
	if !IsIndependentSet(g, nodes) {
		return false
	}
	inSet := make([]bool, g.N())
	for _, v := range nodes {
		inSet[v] = true
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if inSet[v] {
			continue
		}
		dominated := false
		g.ForEachNeighbor(v, func(u int32) bool {
			if inSet[u] {
				dominated = true
				return false
			}
			return true
		})
		if !dominated {
			return false
		}
	}
	return true
}

// CaroWei returns the Caro–Wei lower bound Σ_v 1/(deg(v)+1) on the
// independence number; the min-degree greedy solver always meets it.
func CaroWei(g *graph.Graph) float64 {
	total := 0.0
	for v := 0; v < g.N(); v++ {
		total += 1.0 / float64(g.Degree(int32(v))+1)
	}
	return total
}

// Ratio returns |optimal| / |approx| as the empirical approximation factor
// λ; it returns an error when approx is empty while optimal is not.
func Ratio(optimalSize, approxSize int) (float64, error) {
	if approxSize == 0 {
		if optimalSize == 0 {
			return 1, nil
		}
		return 0, fmt.Errorf("maxis: empty approximate solution for non-empty optimum %d", optimalSize)
	}
	return float64(optimalSize) / float64(approxSize), nil
}

// sortNodes ascending-sorts an independent set for canonical output.
func sortNodes(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
