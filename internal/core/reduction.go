package core

// reduction.go implements the proof of Theorem 1.1 as an executable
// pipeline: conflict-free multicolouring via iterated approximate maximum
// independent set. Phase i builds the conflict graph G_k of the residual
// hypergraph H_i, asks a MaxIS oracle for an independent set I_i, colours
// each vertex v with (v, ·, c) ∈ I_i using a fresh palette, and removes
// the happy edges. With a λ-approximate oracle on instances admitting a CF
// k-colouring, Lemma 2.1 gives |I_i| >= |E_i|/λ, hence
// |E_{i+1}| <= (1 − 1/λ)|E_i| and termination within ρ = λ·ln m + 1
// phases with k·ρ total colours.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"pslocal/internal/cfcolor"
	"pslocal/internal/engine"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
	"pslocal/internal/obs"
)

// ffScratchPool recycles FirstFitScratch buffers across Reduce calls, so
// a solver serving many small implicit-mode reductions reaches steady
// state without per-call scratch growth. Each Reduce holds one scratch
// exclusively for its whole phase loop.
var ffScratchPool = sync.Pool{New: func() any { return new(FirstFitScratch) }}

// Reduction errors.
var (
	// ErrNoOracle reports that Options specify no solving mode.
	ErrNoOracle = errors.New("core: no oracle mode configured")
	// ErrOracleNotIndependent reports an oracle that returned a
	// non-independent set — a contract violation, surfaced rather than
	// silently miscoloured.
	ErrOracleNotIndependent = errors.New("core: oracle returned a non-independent set")
	// ErrNoProgress reports a phase that made no edge happy, which a
	// correct oracle can only cause on an empty conflict graph.
	ErrNoProgress = errors.New("core: reduction phase made no progress")
	// ErrPhaseBudget reports more than 4·m + 16 phases on m edges.
	ErrPhaseBudget = errors.New("core: phase budget exhausted")
)

// Mode selects how each phase solves MaxIS on the conflict graph.
type Mode int

const (
	// ModeOracle materialises G_k and runs Options.Oracle on it.
	ModeOracle Mode = iota + 1
	// ModeExactHinted materialises G_k and solves it exactly with the
	// per-edge clique hint (λ = 1).
	ModeExactHinted
	// ModeImplicitFirstFit runs first-fit greedy on the implicit conflict
	// graph without materialising it (the scalable mode).
	ModeImplicitFirstFit
)

// Options configures Reduce.
type Options struct {
	// K is the per-phase palette size (the k of Theorem 1.2). Required.
	K int
	// Mode selects the solving strategy; ModeOracle requires Oracle.
	Mode Mode
	// Oracle is the λ-approximate MaxIS oracle for ModeOracle.
	Oracle maxis.Oracle
	// Engine configures cancellation of the phase loop and of each G_k
	// build, which is serial at every width; the zero value is the serial
	// path. A non-zero Engine is forwarded to Oracle when the oracle
	// implements maxis.EngineSetter (the portfolio), so the per-phase
	// solve fans out on its pool; the zero value leaves a pre-configured
	// oracle untouched.
	Engine engine.Options
	// OracleName labels phase spans on traced calls ("implicit", "exact",
	// or the registry name behind Oracle). Informational only; it does not
	// affect solving.
	OracleName string
}

// PhaseStat records one phase of the reduction, the raw material of
// experiments E4/E5 and figure F1.
type PhaseStat struct {
	// Phase is 1-based.
	Phase int
	// EdgesBefore is |E_i|.
	EdgesBefore int
	// ConflictNodes is |V(G_k(H_i))|.
	ConflictNodes int
	// ConflictEdges is |E(G_k(H_i))|; -1 in implicit mode (not built).
	ConflictEdges int
	// ISSize is |I_i|.
	ISSize int
	// ISWeight is the total hypergraph-vertex weight of I_i (each triple
	// counts w_H(v)); 0 on unweighted inputs, where it carries no
	// information beyond ISSize.
	ISWeight int64
	// HappyRemoved is the number of edges removed after this phase; by
	// Lemma 2.1(b) it is at least ISSize. The lemma counts edges for any
	// independent set, so it holds unchanged under weighted objectives.
	HappyRemoved int
}

// Result is the outcome of the reduction.
type Result struct {
	// Multicoloring is the conflict-free multicolouring of the input.
	Multicoloring cfcolor.Multicoloring
	// Phases records per-phase statistics.
	Phases []PhaseStat
	// TotalColors is K times the number of phases (distinct palettes).
	TotalColors int
	// K echoes the palette size.
	K int
	// Weighted reports a vertex-weighted input; the weight fields below
	// are populated only when it is set.
	Weighted bool
	// TotalWeight is the total weight of vertices that received at least
	// one colour; 0 on unweighted inputs.
	TotalWeight int64
}

// PhaseBound returns the paper's phase bound ρ = λ·ln(m) + 1 (at least 1).
func PhaseBound(lambda float64, m int) int {
	if m <= 1 {
		return 1
	}
	return int(math.Ceil(lambda*math.Log(float64(m)))) + 1
}

// Reduce runs the Theorem 1.1 reduction on h. A non-nil ctx cancels
// cooperatively — between phases, between the hyperedges of a G_k build,
// and inside the exact and portfolio solvers — and takes precedence over
// opts.Engine.Ctx; a nil ctx leaves opts.Engine.Ctx in charge (never
// cancelled when that is nil too).
func Reduce(ctx context.Context, h *hypergraph.Hypergraph, opts Options) (*Result, error) {
	if ctx != nil {
		opts.Engine.Ctx = ctx
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadK, opts.K)
	}
	if opts.Mode == ModeOracle && opts.Oracle == nil {
		return nil, fmt.Errorf("%w: ModeOracle without Oracle", ErrNoOracle)
	}
	if opts.Mode < ModeOracle || opts.Mode > ModeImplicitFirstFit {
		return nil, fmt.Errorf("%w: mode %d", ErrNoOracle, opts.Mode)
	}
	// Fan-out oracles (the portfolio) inherit the reduction's engine, so
	// one Options.Engine configures the phase loop and solving alike.
	// Only a non-zero engine is forwarded: a caller who configured the
	// oracle directly (SetEngine before Reduce) must not be silently
	// downgraded to the serial zero value.
	if es, ok := opts.Oracle.(maxis.EngineSetter); ok && opts.Engine != (engine.Options{}) {
		es.SetEngine(opts.Engine)
	}
	ff := ffScratchPool.Get().(*FirstFitScratch) // shared across phases (implicit mode)
	defer ffScratchPool.Put(ff)
	return reduce(h, opts, func(ix *Index, _ int, sp obs.Span) ([]Triple, int, error) {
		return solvePhase(ix, opts, ff, sp)
	})
}

// reduce is the phase loop of Theorem 1.1 shared by every strategy: build
// the index of the residual hypergraph, take an independent set of
// triples from step, colour it with a fresh palette block, check Lemma
// 2.1(b), and keep the unhappy edges. step also returns the edge count of
// G_k when it built the graph (-1 otherwise); its child spans attach
// under sp. opts.Engine.Ctx cancels between phases; the loop stops after
// 4·m + 16 phases.
func reduce(h *hypergraph.Hypergraph, opts Options,
	step func(ix *Index, phase int, sp obs.Span) ([]Triple, int, error)) (*Result, error) {
	maxPhases := 4*h.M() + 16
	res := &Result{
		Multicoloring: cfcolor.NewMulticoloring(h.N()),
		K:             opts.K,
		Weighted:      h.Weighted(),
	}
	var colored []bool // weighted inputs: vertices holding >= 1 colour
	if res.Weighted {
		colored = make([]bool, h.N())
	}
	cur := h
	// Phase spans land under the request trace when one rides the context;
	// a nil trace makes every span call a no-op.
	tr := obs.TraceFrom(opts.Engine.Ctx)
	for phase := 1; cur.M() > 0; phase++ {
		if phase > maxPhases {
			return nil, fmt.Errorf("%w: %d phases with %d edges left", ErrPhaseBudget, maxPhases, cur.M())
		}
		if err := opts.Engine.Err(); err != nil {
			return nil, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		sp := tr.Start("phase")
		sp.SetPhase(phase)
		sp.SetOracle(opts.OracleName)
		ix, err := NewIndex(cur, opts.K)
		if err != nil {
			sp.End()
			return nil, err
		}
		triples, conflictEdges, err := step(ix, phase, sp)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		stat := PhaseStat{
			Phase:         phase,
			EdgesBefore:   cur.M(),
			ConflictNodes: ix.NumNodes(),
			ConflictEdges: conflictEdges,
			ISSize:        len(triples),
		}
		if res.Weighted {
			for _, t := range triples {
				stat.ISWeight += cur.Weight(t.Vertex)
			}
		}
		sp.SetDims(stat.ConflictNodes, stat.ConflictEdges)
		sp.SetIS(stat.ISSize, stat.ISWeight)

		f, err := ISToColoring(ix, triples)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		unhappy := cfcolor.UnhappyEdges(cur, f)
		stat.HappyRemoved = cur.M() - len(unhappy)
		if stat.HappyRemoved < stat.ISSize {
			// Lemma 2.1(b) guarantees >= |I| happy edges; anything less
			// means the oracle or the mapping is broken.
			sp.End()
			return nil, fmt.Errorf("core: phase %d removed %d < |I| = %d edges, violating Lemma 2.1(b)",
				phase, stat.HappyRemoved, stat.ISSize)
		}
		if stat.HappyRemoved == 0 {
			sp.End()
			return nil, fmt.Errorf("%w: phase %d", ErrNoProgress, phase)
		}
		// Commit the phase colouring with a fresh palette block.
		offset := int32((phase - 1) * opts.K)
		for v := int32(0); int(v) < cur.N(); v++ {
			if f[v] != cfcolor.Uncolored {
				res.Multicoloring.Add(v, f[v]+offset)
				if colored != nil {
					colored[v] = true
				}
			}
		}
		res.Phases = append(res.Phases, stat)
		cur, err = cur.KeepEdges(unhappy)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: phase %d residual: %w", phase, err)
		}
	}
	res.TotalColors = opts.K * len(res.Phases)
	for v, c := range colored {
		if c {
			res.TotalWeight += h.Weight(int32(v))
		}
	}
	return res, nil
}

// solvePhase produces the phase's independent set of triples and, when the
// conflict graph was materialised, its edge count. The implicit mode reuses
// ff's buffers across phases; its result is consumed within the phase.
// Child spans (csr_build, oracle_solve) attach under the phase span.
func solvePhase(ix *Index, opts Options, ff *FirstFitScratch, phaseSp obs.Span) ([]Triple, int, error) {
	if opts.Mode == ModeImplicitFirstFit {
		return ff.FirstFit(ix), -1, nil
	}
	build := phaseSp.Child("csr_build")
	g, err := BuildOpts(ix, opts.Engine)
	build.End()
	if err != nil {
		return nil, 0, err
	}
	build.SetDims(g.N(), g.M())
	solve := phaseSp.Child("oracle_solve")
	solve.SetOracle(opts.OracleName)
	var ids []int32
	switch opts.Mode {
	case ModeExactHinted:
		ids, err = maxis.ExactOpts(g, maxis.ExactOptions{CliqueHint: ix.EdgeCliqueHint(), Ctx: opts.Engine.Ctx})
	case ModeOracle:
		ids, err = maxis.OracleSolve(opts.Engine.Ctx, opts.Oracle, g)
	}
	solve.End()
	if err != nil {
		return nil, 0, err
	}
	solve.SetIS(len(ids), 0)
	if !maxis.IsIndependentSet(g, ids) {
		return nil, 0, ErrOracleNotIndependent
	}
	triples, err := IDsToTriples(ix, ids)
	if err != nil {
		return nil, 0, err
	}
	return triples, g.M(), nil
}
