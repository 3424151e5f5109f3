package graph

// csr.go assembles the compressed sparse row form every Graph holds, on
// one of two paths. Builder.Build takes an arbitrary edge multiset and
// sorts it into place on one buffer:
//
//	count   degree of every node over the buffered edges
//	prefix  offsets by prefix sum; the counts become write cursors
//	scatter both orientations of every edge through the cursors
//	sort    counting transpose + dedupe (see transposeScatter)
//	compact copy the deduped lists, only when a repeat was dropped
//
// The final adjacency is sorted and duplicate free, so the CSR does not
// depend on emission order. FromCSR takes rows a caller already wrote in
// order (the conflict graph of internal/core emits each G_k row sorted and
// without repeats) and only checks them.

import (
	"errors"
	"fmt"
	"slices"
)

// Build assembles the graph through the two-pass CSR assembler above
// (DESIGN.md, "Two-pass CSR assembly"). After Build the builder can be
// reused only by discarding it; Build does not reset internal state.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeSize, n)
	}
	errs := slices.Clip(b.errs)
	if b.badWeightLen {
		errs = append(errs, fmt.Errorf("%w: SetWeights vector for %d nodes", ErrWeightLength, n))
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	weights, err := normalizeWeights(n, b.weights)
	if err != nil {
		return nil, err
	}

	// Count, then prefix-sum, rewriting each count into its node's write
	// cursor.
	cur := make([]int32, n)
	for j := range b.us {
		cur[b.us[j]]++
		cur[b.vs[j]]++
	}
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + cur[v]
		cur[v] = offsets[v]
	}
	total := offsets[n]

	targets := make([]int32, total)
	for j := range b.us {
		u, v := b.us[j], b.vs[j]
		targets[cur[u]] = v
		cur[u]++
		targets[cur[v]] = u
		cur[v]++
	}

	// A counting transpose sorts every list and drops repeated edges on
	// the way; a prefix sum over the deduped lengths gives the final
	// offsets.
	sorted, end := transposeScatter(n, offsets, targets)
	newOffsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		newOffsets[v+1] = newOffsets[v] + end[v] - offsets[v]
	}
	if newOffsets[n] == total {
		// No repeats anywhere: the transpose is already final.
		return &Graph{offsets: offsets, targets: sorted, weights: weights}, nil
	}
	newTargets := make([]int32, newOffsets[n])
	for v := 0; v < n; v++ {
		copy(newTargets[newOffsets[v]:], sorted[offsets[v]:end[v]])
	}
	return &Graph{offsets: newOffsets, targets: newTargets, weights: weights}, nil
}

// transposeScatter returns the transpose of the symmetric scatter and
// the end of every transposed list. Source nodes are visited in
// ascending order and each is appended to the lists of its scattered
// neighbours, so every list comes out sorted, with the copies of a
// repeated edge arriving back to back; all but the first are dropped,
// leaving node v's list at sorted[offsets[v]:end[v]]. The scatter holds
// both orientations of every edge, so node v's transposed list is its
// scattered multiset and fits the same offsets.
func transposeScatter(n int, offsets, targets []int32) (sorted, end []int32) {
	sorted = make([]int32, len(targets))
	end = slices.Clone(offsets[:n])
	for u := int32(0); u < int32(n); u++ {
		for _, x := range targets[offsets[u]:offsets[u+1]] {
			if c := end[x]; c == offsets[x] || sorted[c-1] != u {
				sorted[c] = u
				end[x] = c + 1
			}
		}
	}
	return sorted, end
}

// FromCSR returns the graph on len(offsets)-1 nodes whose node v has the
// neighbour list targets[offsets[v]:offsets[v+1]], taking ownership of
// both slices. In O(n + m) it rejects offsets that do not tile targets
// and any list that is not strictly ascending, leaves 0..n-1 or holds its
// own node. Symmetry is the caller's contract; Validate checks it.
func FromCSR(offsets, targets []int32) (*Graph, error) {
	n := len(offsets) - 1
	if n < 0 || offsets[0] != 0 || int(offsets[n]) != len(targets) {
		return nil, fmt.Errorf("graph: %d offsets do not tile %d targets", len(offsets), len(targets))
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if lo > hi || int(hi) > len(targets) {
			return nil, fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		prev := int32(-1)
		for _, u := range targets[lo:hi] {
			switch {
			case u < 0 || int(u) >= n:
				return nil, fmt.Errorf("%w: neighbour %d of node %d", ErrNodeRange, u, v)
			case int(u) == v:
				return nil, fmt.Errorf("%w: node %d", ErrSelfLoop, v)
			case u <= prev:
				return nil, fmt.Errorf("graph: adjacency of node %d not strictly sorted", v)
			}
			prev = u
		}
	}
	return &Graph{offsets: offsets, targets: targets}, nil
}
