package pslocal

// solver.go re-exports the context-first Solver API (internal/solver):
// one configurable entry point constructed once via functional options,
// owning the execution engine, the oracle selection, a bounded admission
// gate, and a content-hash-keyed cache of parsed instances.
//
//	sv := pslocal.NewSolver(pslocal.WithK(3), pslocal.WithWorkers(0),
//		pslocal.WithOracle("greedy-mindeg"), pslocal.WithCache(128))
//	res, err := sv.Solve(ctx, h)          // Theorem 1.1 reduction
//	is, err := sv.MaxIS(ctx, g)           // MaxIS through the same handle
//
// All Solver methods take a per-call context and cancel cooperatively;
// abandoned calls return ErrCancelled.

import (
	"context"

	"pslocal/internal/hypergraph"
	"pslocal/internal/solver"
)

type (
	// Solver is the configurable entry point to the reduction pipeline:
	// construct with NewSolver, derive per-call variants with
	// [Solver.With], and solve with [Solver.Solve], [Solver.MaxIS],
	// [Solver.SolveBatch], [Solver.SolveReader] or [Solver.MaxISReader].
	// A Solver is safe for concurrent use.
	Solver = solver.Solver
	// SolverOption configures a Solver (see the With... constructors).
	SolverOption = solver.Option
	// ISResult is the outcome of Solver.MaxIS.
	ISResult = solver.ISResult
	// InstanceInfo describes a parsed instance and its cache disposition,
	// returned by Solver.SolveReader and Solver.MaxISReader.
	InstanceInfo = solver.Instance
	// SolverCacheStats snapshots the Solver's instance cache.
	SolverCacheStats = solver.CacheStats
)

// NewSolver constructs a Solver over the serial, implicit-first-fit,
// k=3 defaults.
func NewSolver(opts ...SolverOption) *Solver { return solver.New(opts...) }

// WithWorkers sets the worker-pool width shared by portfolio racing and
// SolveBatch fan-out (the CLI -workers convention: 0 = GOMAXPROCS, 1 =
// serial). Conflict-graph construction is serial at every width.
func WithWorkers(n int) SolverOption { return solver.WithWorkers(n) }

// WithOracle names the strategy, the only strategy selector: "implicit"
// (the default), "exact", any registered oracle name, or
// "portfolio:<a>,<b>,..." racing registered oracles per phase; MaxIS
// resolves the name in the registry ("" = greedy-mindeg). Unknown names
// surface from Solve/MaxIS as ErrUnknownOracle.
func WithOracle(name string) SolverOption { return solver.WithOracle(name) }

// WithK sets the per-phase palette size of Solve (default 3).
func WithK(k int) SolverOption { return solver.WithK(k) }

// WithSeed seeds randomized oracles (default 1).
func WithSeed(seed int64) SolverOption { return solver.WithSeed(seed) }

// WithCarving switches Solver.MaxIS onto the SLOCAL ball-carving
// (1+δ)-approximation; delta is the growth slack, 0 selecting 1.0.
func WithCarving(delta float64) SolverOption { return solver.WithCarving(delta) }

// WithCache bounds the Solver's parsed-instance LRU (keyed by content
// hash) to n entries; 0 disables caching. Construction-time only: derived
// solvers share the originating Solver's cache.
func WithCache(n int) SolverOption { return solver.WithCache(n) }

// WithMaxInflight bounds concurrently admitted solves; excess calls queue
// at the gate honouring their contexts (0 = unbounded, negative =
// GOMAXPROCS). Construction-time only, shared by derived solvers.
func WithMaxInflight(n int) SolverOption { return solver.WithMaxInflight(n) }

// Instance kinds of InstanceKey: the substrate a cache key was derived
// over (a key never hits across kinds).
const (
	KindHypergraph = solver.KindHypergraph
	KindGraph      = solver.KindGraph
)

// InstanceKey returns the Solver's instance cache key for a raw body:
// the hex sha256 content hash of kind (KindHypergraph or KindGraph),
// the canonical format directive and the body bytes. The cluster
// gateway computes it once per request to route by cache affinity; the
// backend computes it again for its own cache lookup.
func InstanceKey(kind, format string, body []byte) string {
	return solver.InstanceKey(kind, format, body)
}

// compile-time check that the facade aliases line up with the internal
// signatures the Solver methods use.
var _ func(context.Context, *hypergraph.Hypergraph) (*ReduceResult, error) = (*Solver)(nil).Solve
