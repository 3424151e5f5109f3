// Package verify is the cross-cutting verification suite: every claim an
// experiment or CLI makes about an output — independence, maximality,
// proper or conflict-free colouring, decomposition validity, reduction
// bookkeeping — is checked here and reported as an error rather than
// assumed. Verifiers re-derive their answers from first principles (they
// do not call the algorithms under test).
package verify

import (
	"errors"
	"fmt"
	"strings"

	"pslocal/internal/cfcolor"
	"pslocal/internal/core"
	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
)

// Check failures.
var (
	// ErrNotIndependent reports adjacent, repeated, or out-of-range nodes.
	ErrNotIndependent = errors.New("verify: not an independent set")
	// ErrNotMaximal reports an independent set with an addable node.
	ErrNotMaximal = errors.New("verify: independent set not maximal")
	// ErrNotProper reports a monochromatic edge or an uncoloured node.
	ErrNotProper = errors.New("verify: not a proper colouring")
	// ErrNotConflictFree reports an unhappy hyperedge.
	ErrNotConflictFree = errors.New("verify: not conflict-free")
	// ErrInconsistent reports bookkeeping that contradicts itself.
	ErrInconsistent = errors.New("verify: inconsistent result bookkeeping")
)

// IndependentSet checks that nodes form an independent set of g in
// O(n + Σ deg(S)) time. Members are visited in ascending id order, each
// against its sorted neighbours, so the first member with a neighbour in
// the set is the smaller end of the first edge inside the set in
// ascending (u, v) order, and that edge is the one reported.
func IndependentSet(g *graph.Graph, nodes []int32) error {
	in := make([]bool, g.N())
	for _, v := range nodes {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("%w: node %d out of range", ErrNotIndependent, v)
		}
		if in[v] {
			return fmt.Errorf("%w: node %d repeated", ErrNotIndependent, v)
		}
		in[v] = true
	}
	for u, member := range in {
		if !member {
			continue
		}
		var err error
		g.ForEachNeighbor(int32(u), func(v int32) bool {
			if in[v] {
				err = fmt.Errorf("%w: edge {%d,%d} inside the set", ErrNotIndependent, u, v)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// MaximalIndependentSet checks independence and inclusion-maximality.
func MaximalIndependentSet(g *graph.Graph, nodes []int32) error {
	if err := IndependentSet(g, nodes); err != nil {
		return err
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
			return fmt.Errorf("%w: node %d addable", ErrNotMaximal, v)
		}
	}
	return nil
}

// ProperColoring checks a total proper vertex colouring (1-based colours).
func ProperColoring(g *graph.Graph, colours []int32) error {
	if len(colours) != g.N() {
		return fmt.Errorf("%w: %d colours for %d nodes", ErrNotProper, len(colours), g.N())
	}
	for v, c := range colours {
		if c < 1 {
			return fmt.Errorf("%w: node %d uncoloured", ErrNotProper, v)
		}
	}
	var err error
	g.ForEachEdge(func(u, v int32) bool {
		if colours[u] == colours[v] {
			err = fmt.Errorf("%w: edge {%d,%d} monochromatic (%d)", ErrNotProper, u, v, colours[u])
			return false
		}
		return true
	})
	return err
}

// ConflictFree checks that every edge of h is happy under c.
func ConflictFree(h *hypergraph.Hypergraph, c cfcolor.Coloring) error {
	if err := c.Validate(h); err != nil {
		return err
	}
	for j := 0; j < h.M(); j++ {
		if !cfcolor.EdgeHappy(h, j, c) {
			return fmt.Errorf("%w: edge %d (%v)", ErrNotConflictFree, j, h.Edge(j))
		}
	}
	return nil
}

// ConflictFreeMulti checks that every edge of h is happy under mc.
func ConflictFreeMulti(h *hypergraph.Hypergraph, mc cfcolor.Multicoloring) error {
	if err := mc.Validate(h); err != nil {
		return err
	}
	for j := 0; j < h.M(); j++ {
		if !cfcolor.EdgeHappyMulti(h, j, mc) {
			return fmt.Errorf("%w: edge %d (%v)", ErrNotConflictFree, j, h.Edge(j))
		}
	}
	return nil
}

// ReductionResult checks a Theorem 1.1 reduction output end to end: the
// multicolouring is conflict-free on the original input, phase bookkeeping
// chains correctly (E_{i+1} = E_i − removed, ending at zero), every phase
// satisfies the Lemma 2.1(b) inequality removed >= |I_i|, and the colour
// budget matches k·phases.
func ReductionResult(h *hypergraph.Hypergraph, res *core.Result) error {
	if err := ConflictFreeMulti(h, res.Multicoloring); err != nil {
		return err
	}
	edges := h.M()
	for _, ph := range res.Phases {
		if ph.EdgesBefore != edges {
			return fmt.Errorf("%w: phase %d starts at %d edges, expected %d",
				ErrInconsistent, ph.Phase, ph.EdgesBefore, edges)
		}
		if ph.HappyRemoved < ph.ISSize {
			return fmt.Errorf("%w: phase %d removed %d < |I| = %d",
				ErrInconsistent, ph.Phase, ph.HappyRemoved, ph.ISSize)
		}
		if ph.HappyRemoved < 1 {
			return fmt.Errorf("%w: phase %d made no progress", ErrInconsistent, ph.Phase)
		}
		edges -= ph.HappyRemoved
	}
	if edges != 0 {
		return fmt.Errorf("%w: %d edges unaccounted after final phase", ErrInconsistent, edges)
	}
	if res.TotalColors != res.K*len(res.Phases) {
		return fmt.Errorf("%w: TotalColors %d != K·phases = %d",
			ErrInconsistent, res.TotalColors, res.K*len(res.Phases))
	}
	if got := res.Multicoloring.NumDistinctColors(); got > res.TotalColors {
		return fmt.Errorf("%w: %d distinct colours exceed budget %d",
			ErrInconsistent, got, res.TotalColors)
	}
	return nil
}

// IndependentTriples checks that triples are pairwise non-adjacent in the
// conflict graph indexed by ix.
func IndependentTriples(ix *core.Index, ts []core.Triple) error {
	ok, err := core.IsIndependentTriples(ix, ts)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: triple set has an internal conflict-graph edge", ErrNotIndependent)
	}
	return nil
}

// Ratio returns optimal/approx as the empirical λ, delegating to maxis.
func Ratio(optimalSize, approxSize int) (float64, error) {
	return maxis.Ratio(optimalSize, approxSize)
}

// Report aggregates named checks for CLI-style output.
type Report struct {
	checks []namedCheck
}

type namedCheck struct {
	name string
	err  error
}

// Add records the outcome of one named check.
func (r *Report) Add(name string, err error) {
	r.checks = append(r.checks, namedCheck{name: name, err: err})
}

// OK reports whether every recorded check passed.
func (r *Report) OK() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

// Err returns an aggregate error listing the failed checks, or nil.
func (r *Report) Err() error {
	var failed []string
	for _, c := range r.checks {
		if c.err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", c.name, c.err))
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("verify: %d check(s) failed: %s", len(failed), strings.Join(failed, "; "))
}

// String renders one line per check, PASS or FAIL.
func (r *Report) String() string {
	var b strings.Builder
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(&b, "FAIL %-32s %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(&b, "PASS %s\n", c.name)
		}
	}
	return b.String()
}
