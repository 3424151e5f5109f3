package maxis

// portfolio.go implements the oracle execution layer of DESIGN.md,
// "Execution engine": a Portfolio races several oracles on the same
// conflict graph over the engine worker pool and keeps the largest
// independent set found. Racing diverse greedy strategies per phase is
// the cheap way to tighten the empirical λ of the Theorem 1.1 loop —
// the per-phase |I| is the max over members, so the residual shrinks at
// the best member's rate on every phase.

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
)

// EngineSetter is implemented by oracles whose Solve fans work out over a
// worker pool (Portfolio). core.Reduce forwards its engine options to any
// such oracle, so a single -workers flag configures conflict-graph
// construction and per-phase solving alike.
type EngineSetter interface {
	// SetEngine installs the execution options used by Solve.
	SetEngine(opts engine.Options)
}

// Portfolio is an Oracle that runs every member on the input and returns
// the best independent set found: the maximum total weight on weighted
// instances, the maximum cardinality otherwise (on unweighted graphs the
// two orderings coincide, so pre-weights behaviour is unchanged). Ties —
// equal size, or equal weight on weighted instances — deterministically
// keep the lowest-index member, so the result is identical for any worker
// count or completion order. A single-member portfolio delegates directly
// and is bit-identical to that member.
type Portfolio struct {
	members []Oracle
	eng     engine.Options
}

var _ EngineSetter = (*Portfolio)(nil)

// NewPortfolio builds a portfolio over the given members. At least one
// non-nil member is required. Members run concurrently under SetEngine
// options, so they must not share mutable state.
func NewPortfolio(members ...Oracle) (*Portfolio, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("maxis: portfolio needs at least one member")
	}
	owned := make([]Oracle, len(members))
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("maxis: portfolio member %d is nil", i)
		}
		owned[i] = m
	}
	return &Portfolio{members: owned}, nil
}

// Name implements Oracle; it is the registry spelling
// "portfolio:<member>,<member>,...".
func (p *Portfolio) Name() string {
	names := make([]string, len(p.members))
	for i, m := range p.members {
		names[i] = m.Name()
	}
	return portfolioPrefix + strings.Join(names, ",")
}

// Members returns the member oracles in racing order (shared slice; do
// not mutate).
func (p *Portfolio) Members() []Oracle { return p.members }

// SetEngine implements EngineSetter. The zero value runs the members
// serially in order, which yields the same result as any parallel run.
func (p *Portfolio) SetEngine(opts engine.Options) { p.eng = opts }

// Solve implements Oracle: every member solves g (concurrently when the
// engine options select more than one worker), and the heaviest returned
// set wins (SetWeight — cardinality on unweighted instances). Members
// whose error wraps ErrInapplicable (e.g. bipartite-exact on a
// non-bipartite or weighted instance) are dropped from the race; any
// other member error aborts the portfolio. A race in which every member
// was dropped is an error.
func (p *Portfolio) Solve(g *graph.Graph) ([]int32, error) {
	return p.solve(p.eng, g)
}

// SolveContext implements ContextSolver: the race runs under ctx (an
// explicit SetEngine context wins) and ctx-aware members cancel
// cooperatively mid-solve.
func (p *Portfolio) SolveContext(ctx context.Context, g *graph.Graph) ([]int32, error) {
	eng := p.eng
	if eng.Ctx == nil {
		eng.Ctx = ctx
	}
	return p.solve(eng, g)
}

// solve races the members on eng's pool.
func (p *Portfolio) solve(eng engine.Options, g *graph.Graph) ([]int32, error) {
	if len(p.members) == 1 {
		return OracleSolve(eng.Ctx, p.members[0], g)
	}
	results := make([][]int32, len(p.members))
	dropped := make([]error, len(p.members))
	err := eng.ForEachShard(len(p.members), func(_ int, s engine.Shard) error {
		for i := s.Lo; i < s.Hi; i++ {
			if err := eng.Err(); err != nil {
				return err
			}
			set, err := OracleSolve(eng.Ctx, p.members[i], g)
			if err != nil {
				if errors.Is(err, ErrInapplicable) {
					dropped[i] = err
					continue
				}
				return fmt.Errorf("maxis: portfolio member %s: %w", p.members[i].Name(), err)
			}
			results[i] = set
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Winner: strictly greater weight only, so equal-weight (and on
	// unweighted graphs equal-size) races keep the lowest-index member —
	// the pinned deterministic tie-break.
	best, bestW := -1, int64(-1)
	for i := range results {
		if dropped[i] != nil {
			continue
		}
		if w := SetWeight(g, results[i]); w > bestW {
			best, bestW = i, w
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("maxis: every portfolio member was inapplicable: %w", dropped[0])
	}
	return results[best], nil
}
