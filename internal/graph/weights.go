package graph

// weights.go implements optional vertex weights, the substrate of the
// vertex-weighted MaxIS objective. Weights are part of the instance, not a
// solver mode: a Graph either carries a non-unit weight vector or it does
// not, and every consumer branches on Weighted().
//
// The nil-weights fast path is a hard contract (DESIGN.md, "Weighted
// instances"): constructors normalise an all-unit weight vector to nil, so
// "weighted" is a single pointer test, unweighted graphs pay no storage,
// and code paths keyed on Weighted() are bit-identical to the pre-weights
// behaviour whenever every weight is 1.

import (
	"errors"
	"fmt"
	"math"
)

// MaxWeight is the largest admissible vertex weight. Capping per-vertex
// weights at 2^31−1 keeps every quantity the solvers compute in int64
// without overflow checks: a total over at most 2^31 vertices stays below
// 2^62, and the greedy ratio cross-products w(u)·(deg(v)+1) stay below
// 2^62 as well.
const MaxWeight = math.MaxInt32

// Weight errors returned by Build and WithWeights.
var (
	// ErrBadWeight reports a negative vertex weight or one above MaxWeight.
	ErrBadWeight = errors.New("graph: vertex weight out of range")
	// ErrWeightLength reports a weight vector whose length is not the node
	// count.
	ErrWeightLength = errors.New("graph: weight vector length mismatch")
)

// Weighted reports whether g carries non-unit vertex weights. Constructors
// normalise all-unit weight vectors away, so false means every weight is
// exactly 1 and the unweighted fast paths apply.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Weight returns the weight of v: 1 on unweighted graphs.
func (g *Graph) Weight(v int32) int64 {
	if g.weights == nil {
		return 1
	}
	return g.weights[v]
}

// Weights returns a fresh copy of the per-vertex weight vector, or nil for
// an unweighted graph (every weight 1). The caller owns the result.
func (g *Graph) Weights() []int64 {
	if g.weights == nil {
		return nil
	}
	out := make([]int64, len(g.weights))
	copy(out, g.weights)
	return out
}

// AppendWeights appends the effective per-vertex weights (all 1 on
// unweighted graphs) to dst and returns the extended slice, avoiding an
// allocation when dst has capacity.
func (g *Graph) AppendWeights(dst []int64) []int64 {
	if g.weights != nil {
		return append(dst, g.weights...)
	}
	for i := 0; i < g.N(); i++ {
		dst = append(dst, 1)
	}
	return dst
}

// TotalWeight returns the sum of all vertex weights; on unweighted graphs
// it equals N().
func (g *Graph) TotalWeight() int64 {
	if g.weights == nil {
		return int64(g.N())
	}
	total := int64(0)
	for _, w := range g.weights {
		total += w
	}
	return total
}

// SetWeight records the weight of vertex v (default 1). Like AddEdge,
// range errors are deferred to Build.
func (b *Builder) SetWeight(v int32, w int64) {
	switch {
	case b.n < 0:
		// Build reports ErrNegativeSize; nothing to record.
	case v < 0 || int(v) >= b.n:
		b.errs = append(b.errs, fmt.Errorf("%w: SetWeight(%d) with n=%d", ErrNodeRange, v, b.n))
	default:
		if b.weights == nil {
			b.weights = unitWeights(b.n)
		}
		b.weights[v] = w
	}
}

// SetWeights records the whole weight vector at once; it must have exactly
// n entries (checked at Build). The slice is copied.
func (b *Builder) SetWeights(ws []int64) {
	if ws == nil {
		b.weights = nil
		b.badWeightLen = false
		return
	}
	if len(ws) != b.n {
		b.badWeightLen = true
		b.weights = nil
		return
	}
	b.badWeightLen = false
	b.weights = append(b.weights[:0], ws...)
}

// WithWeights returns a graph sharing g's adjacency structure with the
// given weight vector (nil restores the unweighted form). The vector must
// have N() entries within [0, MaxWeight]; it is copied and normalised
// (all-unit collapses to nil).
func WithWeights(g *Graph, ws []int64) (*Graph, error) {
	norm, err := normalizeWeights(g.N(), ws)
	if err != nil {
		return nil, err
	}
	return &Graph{offsets: g.offsets, targets: g.targets, weights: norm}, nil
}

// normalizeWeights validates ws against n nodes and returns a private
// normalised copy: nil when ws is nil or all-unit.
func normalizeWeights(n int, ws []int64) ([]int64, error) {
	if ws == nil {
		return nil, nil
	}
	if len(ws) != n {
		return nil, fmt.Errorf("%w: %d weights for %d nodes", ErrWeightLength, len(ws), n)
	}
	unit := true
	for v, w := range ws {
		if w < 0 || w > MaxWeight {
			return nil, fmt.Errorf("%w: weight %d of node %d", ErrBadWeight, w, v)
		}
		if w != 1 {
			unit = false
		}
	}
	if unit {
		return nil, nil
	}
	out := make([]int64, len(ws))
	copy(out, ws)
	return out, nil
}

// unitWeights returns a fresh all-ones vector of length n.
func unitWeights(n int) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}
