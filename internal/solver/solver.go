// Package solver implements the context-first entry point of the
// repository: a Solver constructed once via functional options that owns
// the execution engine configuration, the oracle selection, a bounded
// admission gate, and a content-hash-keyed cache of parsed instances.
// Every method takes a per-call context.Context and cancels
// cooperatively; cancellation surfaces as ErrCancelled.
//
// The Solver is what the public facade re-exports as pslocal.Solver and
// what cmd/cfserve serves requests through. Serialized instances enter
// through one reader per kind (SolveReader, MaxISReader), which always
// hashes the body itself for the cache lookup. DESIGN.md ("Solver and
// instance cache") records the design.
package solver

import (
	"context"
	"errors"
	"fmt"
	"io"

	"pslocal/internal/core"
	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
	"pslocal/internal/obs"
	"pslocal/internal/slocal"
)

// ErrCancelled reports a solve abandoned through its context. Errors
// returned by Solver methods after a cancellation match both ErrCancelled
// and the underlying context error under errors.Is.
var ErrCancelled = errors.New("solver: solve cancelled")

// ErrReadInstance reports that SolveReader/MaxISReader failed reading the
// instance bytes (as opposed to parsing them): the cause — an
// http.MaxBytesError, a broken pipe — stays reachable through
// errors.As/Is, and cmd/cfserve maps it to a client-side status.
var ErrReadInstance = errors.New("solver: reading instance")

// cancelledError tags a context failure with ErrCancelled while keeping
// the original cause (context.Canceled or context.DeadlineExceeded)
// reachable for errors.Is.
type cancelledError struct{ cause error }

func (e *cancelledError) Error() string {
	return ErrCancelled.Error() + ": " + e.cause.Error()
}

func (e *cancelledError) Unwrap() []error { return []error{ErrCancelled, e.cause} }

// wrapCancelled converts a context-driven failure into ErrCancelled and
// passes every other error through unchanged.
func wrapCancelled(ctx context.Context, err error) error {
	if err == nil || errors.Is(err, ErrCancelled) {
		return err
	}
	if (ctx != nil && ctx.Err() != nil) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &cancelledError{cause: err}
	}
	return err
}

// carvingBranchBudget bounds the exact solve inside each carved ball of
// the MaxIS carving path. A dense instance would otherwise pin its
// admission slot on an unbounded branch-and-bound; when the budget trips,
// the solver's anytime set is used instead — the output is still a
// verified independent set, only the (1+δ) quality bound degrades.
const carvingBranchBudget = 1 << 20

// config is the immutable option set of a Solver.
type config struct {
	// workers follows the shared -workers CLI convention: 0 selects
	// GOMAXPROCS, any other value is the literal pool width (1 = serial).
	workers int
	// oracleName selects the per-phase MaxIS strategy by registry name;
	// the spellings "exact" and "implicit" select the built-in
	// ModeExactHinted / ModeImplicitFirstFit reduction modes. Empty defers
	// to mode.
	oracleName string
	// mode is the explicit built-in reduction mode; 0 means
	// ModeImplicitFirstFit (the scalable default).
	mode core.Mode
	// k is the per-phase palette size of Solve.
	k int
	// seed feeds randomized oracles; deterministic oracles ignore it.
	seed int64
	// maxPhases bounds the reduction loop; 0 keeps the core default.
	maxPhases int
	// carving switches MaxIS onto the SLOCAL ball-carving
	// (1+δ)-approximation instead of a registry oracle.
	carving bool
	// delta is the carving growth slack; 0 selects the slocal default 1.0.
	delta float64
	// cacheEntries bounds the parsed-instance LRU; 0 disables caching.
	cacheEntries int
	// maxInflight bounds concurrently admitted solves; 0 means unbounded,
	// negative selects GOMAXPROCS.
	maxInflight int
}

// defaults returns the zero-configuration Solver: serial, implicit
// first-fit, k=3, seed 1, no cache, no admission bound.
func defaults() config {
	return config{workers: 1, k: 3, seed: 1}
}

// Option configures a Solver at construction (New) or derivation (With).
type Option func(*config)

// WithWorkers sets the worker-pool width shared by conflict-graph
// construction, portfolio racing and SolveBatch fan-out, following the
// CLI -workers convention: 0 selects GOMAXPROCS, 1 is serial, any other
// positive value is the literal width.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithOracle selects the per-phase MaxIS strategy by name: "implicit"
// (first-fit on the implicit conflict graph), "exact" (the hinted exact
// solver, λ = 1), any registered oracle name, or a
// "portfolio:<a>,<b>,..." composite. Resolution happens per call, so an
// unknown name surfaces from Solve/MaxIS as maxis.ErrUnknownOracle.
func WithOracle(name string) Option { return func(c *config) { c.oracleName = name } }

// WithPortfolio selects a portfolio racing the named registry oracles
// per phase; it is shorthand for WithOracle("portfolio:<a>,<b>,...").
func WithPortfolio(members ...string) Option {
	name := "portfolio:"
	for i, m := range members {
		if i > 0 {
			name += ","
		}
		name += m
	}
	return func(c *config) { c.oracleName = name }
}

// WithMode selects a built-in reduction mode explicitly; WithOracle wins
// when both are set.
func WithMode(m core.Mode) Option { return func(c *config) { c.mode = m } }

// WithK sets the per-phase palette size of Solve (default 3).
func WithK(k int) Option { return func(c *config) { c.k = k } }

// WithSeed seeds randomized oracles (default 1); deterministic oracles
// ignore it.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithMaxPhases bounds the reduction loop defensively; 0 keeps the core
// default of 4·m + 16.
func WithMaxPhases(n int) Option { return func(c *config) { c.maxPhases = n } }

// WithCarving switches MaxIS onto the SLOCAL ball-carving
// (1+δ)-approximation (the containment direction of Theorem 1.1); delta
// is the growth slack, 0 selecting the default 1.0. The per-ball exact
// solves are branch-budgeted and observe the call context.
func WithCarving(delta float64) Option {
	return func(c *config) {
		c.carving = true
		c.delta = delta
	}
}

// WithCache bounds the parsed-instance LRU used by SolveReader and
// MaxISReader to n entries; 0 (the default) disables caching. The cache
// is created at New and shared by every solver derived through With.
func WithCache(n int) Option { return func(c *config) { c.cacheEntries = n } }

// WithMaxInflight bounds the number of concurrently admitted solves;
// excess calls queue at the gate, honouring their contexts. 0 (the
// default) means unbounded, negative selects GOMAXPROCS. Like the cache,
// the gate is created at New and shared by derived solvers.
func WithMaxInflight(n int) Option { return func(c *config) { c.maxInflight = n } }

// Solver is the configurable entry point to the reduction pipeline. It is
// safe for concurrent use: configuration is immutable after New, oracles
// are instantiated per call, and the cache and gate are internally
// synchronised.
type Solver struct {
	cfg   config
	cache *instanceCache // nil when caching is disabled
	gate  *engine.Gate   // nil when admission is unbounded
}

// New constructs a Solver from the given options over the serial,
// implicit-first-fit defaults.
func New(opts ...Option) *Solver {
	cfg := defaults()
	for _, o := range opts {
		o(&cfg)
	}
	s := &Solver{cfg: cfg}
	if cfg.cacheEntries > 0 {
		s.cache = newInstanceCache(cfg.cacheEntries)
	}
	if cfg.maxInflight != 0 {
		n := cfg.maxInflight
		if n < 0 {
			n = engine.Parallel().WorkerCount()
		}
		s.gate = engine.NewGate(n)
	}
	return s
}

// With returns a Solver with the given options applied over s's
// configuration. The derived solver shares s's instance cache and
// admission gate — WithCache and WithMaxInflight are construction-time
// options and have no effect here — which is how one server-wide Solver
// serves per-request oracle, seed, palette and worker choices.
func (s *Solver) With(opts ...Option) *Solver {
	cfg := s.cfg
	for _, o := range opts {
		o(&cfg)
	}
	cfg.cacheEntries = s.cfg.cacheEntries
	cfg.maxInflight = s.cfg.maxInflight
	return &Solver{cfg: cfg, cache: s.cache, gate: s.gate}
}

// CacheStats snapshots the shared instance cache (zero when caching is
// disabled).
func (s *Solver) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.snapshot()
}

// InFlight returns the number of currently admitted solves (0 when
// admission is unbounded).
func (s *Solver) InFlight() int {
	if s.gate == nil {
		return 0
	}
	return s.gate.InUse()
}

// MaxInFlight returns the admission bound (0 when unbounded).
func (s *Solver) MaxInFlight() int {
	if s.gate == nil {
		return 0
	}
	return s.gate.Capacity()
}

// acquire admits one solve, queueing at the gate when one is configured.
// Time spent queueing shows up as a gate_wait span on a traced call.
func (s *Solver) acquire(ctx context.Context) error {
	if s.gate == nil {
		if ctx != nil {
			return wrapCancelled(ctx, ctx.Err())
		}
		return nil
	}
	sp := obs.TraceFrom(ctx).Start("gate_wait")
	err := s.gate.Acquire(ctx)
	sp.End()
	return wrapCancelled(ctx, err)
}

// release frees the slot taken by acquire.
func (s *Solver) release() {
	if s.gate != nil {
		s.gate.Release()
	}
}

// engineOpts resolves the execution options for one call under ctx.
func (s *Solver) engineOpts(ctx context.Context) engine.Options {
	eng := engine.FromWorkersFlag(s.cfg.workers)
	eng.Ctx = ctx
	return eng
}

// reduceOptions resolves the configured strategy into core options,
// instantiating the oracle fresh per call so concurrent Solves never
// share oracle state.
func (s *Solver) reduceOptions(ctx context.Context) (core.Options, error) {
	opts := core.Options{K: s.cfg.k, MaxPhases: s.cfg.maxPhases, Engine: s.engineOpts(ctx)}
	switch s.cfg.oracleName {
	case "":
		if s.cfg.mode != 0 {
			opts.Mode = s.cfg.mode
		} else {
			opts.Mode = core.ModeImplicitFirstFit
		}
	case "implicit":
		opts.Mode = core.ModeImplicitFirstFit
	case "exact":
		opts.Mode = core.ModeExactHinted
	default:
		oracle, err := maxis.Lookup(s.cfg.oracleName, s.cfg.seed)
		if err != nil {
			return opts, err
		}
		opts.Mode = core.ModeOracle
		opts.Oracle = oracle
		opts.OracleName = s.cfg.oracleName
	}
	if opts.OracleName == "" {
		if opts.Mode == core.ModeExactHinted {
			opts.OracleName = "exact"
		} else {
			opts.OracleName = "implicit"
		}
	}
	return opts, nil
}

// Solve runs the Theorem 1.1 reduction — conflict-free multicolouring via
// iterated approximate MaxIS — on h under the configured strategy. ctx
// cancels cooperatively; an abandoned call returns ErrCancelled.
func (s *Solver) Solve(ctx context.Context, h *hypergraph.Hypergraph) (*core.Result, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.solve(ctx, h)
}

// solve is Solve past the admission gate (SolveReader and SolveBatch hold
// their own slot).
func (s *Solver) solve(ctx context.Context, h *hypergraph.Hypergraph) (*core.Result, error) {
	opts, err := s.reduceOptions(ctx)
	if err != nil {
		return nil, err
	}
	res, err := core.Reduce(ctx, h, opts)
	return res, wrapCancelled(ctx, err)
}

// SolveBatch reduces every hypergraph of hs, fanning the instances out
// over the configured worker pool (engine.ForEachShard); each instance
// solves serially so the batch does not oversubscribe the pool. The
// result slice is index-aligned with hs. The first failing instance
// aborts the batch.
func (s *Solver) SolveBatch(ctx context.Context, hs []*hypergraph.Hypergraph) ([]*core.Result, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	results := make([]*core.Result, len(hs))
	inner := s.With(WithWorkers(1))
	err := s.engineOpts(ctx).ForEachShard(len(hs), func(_ int, sh engine.Shard) error {
		for i := sh.Lo; i < sh.Hi; i++ {
			res, err := inner.solve(ctx, hs[i])
			if err != nil {
				return fmt.Errorf("solver: batch instance %d: %w", i, err)
			}
			results[i] = res
		}
		return nil
	})
	if err != nil {
		return nil, wrapCancelled(ctx, err)
	}
	return results, nil
}

// ISResult is the outcome of MaxIS.
type ISResult struct {
	// Set is the independent set found, ascending.
	Set []int32
	// TotalWeight is the total vertex weight of Set: Σ w(v) on weighted
	// instances, |Set| otherwise (unit weights).
	TotalWeight int64
	// Oracle is the registry name that solved ("" on the carving path).
	Oracle string
	// Locality and RadiusBound report the carving path's measured and
	// theoretical locality; both are 0 on the oracle path.
	Locality    int
	RadiusBound int
}

// MaxIS solves maximum independent set on g through the configured
// registry oracle (default "greedy-mindeg"), or through the SLOCAL
// ball-carving (1+δ)-approximation when WithCarving is set.
func (s *Solver) MaxIS(ctx context.Context, g *graph.Graph) (*ISResult, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.maxIS(ctx, g, nil)
}

// maxIS is MaxIS past the admission gate. A non-nil cg supplies the
// cached instance's lazily packed bitset adjacency, injected into
// kernel-capable oracles so cache-hit requests never re-pack.
func (s *Solver) maxIS(ctx context.Context, g *graph.Graph, cg *cachedGraph) (*ISResult, error) {
	if s.cfg.carving {
		sp := obs.TraceFrom(ctx).Start("carving_solve")
		sp.SetDims(g.N(), g.M())
		sp.SetOracle("carving")
		defer sp.End()
		res, err := slocal.BallCarvingMaxIS(g, slocal.CarvingOptions{
			Delta: s.cfg.delta,
			Ctx:   ctx,
			Inner: func(ball *graph.Graph) ([]int32, error) {
				set, err := maxis.ExactOpts(ball, maxis.ExactOptions{
					MaxBranchNodes: carvingBranchBudget,
					Ctx:            ctx,
				})
				if errors.Is(err, maxis.ErrBudgetExceeded) {
					return set, nil
				}
				return set, err
			},
		})
		if err != nil {
			return nil, wrapCancelled(ctx, err)
		}
		sp.SetIS(len(res.Set), maxis.SetWeight(g, res.Set))
		return &ISResult{
			Set:         res.Set,
			TotalWeight: maxis.SetWeight(g, res.Set),
			Locality:    res.Locality,
			RadiusBound: res.RadiusBound,
		}, nil
	}
	name := s.cfg.oracleName
	if name == "" {
		name = "greedy-mindeg"
	}
	oracle, err := maxis.Lookup(name, s.cfg.seed)
	if err != nil {
		return nil, err
	}
	if es, ok := oracle.(maxis.EngineSetter); ok {
		es.SetEngine(s.engineOpts(ctx))
	}
	if cg != nil {
		if ds, ok := oracle.(maxis.DenseSetter); ok {
			if d := cg.densePack(); d != nil {
				ds.SetDense(d)
			}
		}
	}
	sp := obs.TraceFrom(ctx).Start("oracle_solve")
	sp.SetDims(g.N(), g.M())
	sp.SetOracle(name)
	set, err := maxis.OracleSolve(ctx, oracle, g)
	if err != nil {
		sp.End()
		return nil, wrapCancelled(ctx, err)
	}
	sp.SetIS(len(set), maxis.SetWeight(g, set))
	sp.End()
	return &ISResult{Set: set, TotalWeight: maxis.SetWeight(g, set), Oracle: name}, nil
}

// Instance describes a parsed instance and its cache disposition.
type Instance struct {
	// Kind is "graph" or "hypergraph".
	Kind string
	// Key is the full sha256 content hash (hex) keying the cache; empty
	// when caching is disabled (the body is then read and parsed but not
	// hashed).
	Key string
	// CacheHit reports whether parsing was skipped.
	CacheHit bool
	// N and M are the instance's vertex and (hyper)edge counts.
	N, M int

	// value is the parsed instance, exposed through Hypergraph/Graph so
	// callers (cfserve's verification pass) reach it without a re-parse.
	value any
}

// Hypergraph returns the parsed hypergraph behind a SolveReader instance
// (nil for graph instances).
func (i *Instance) Hypergraph() *hypergraph.Hypergraph {
	h, _ := i.value.(*hypergraph.Hypergraph)
	return h
}

// Graph returns the parsed graph behind a MaxISReader instance (nil for
// hypergraph instances).
func (i *Instance) Graph() *graph.Graph {
	cg, _ := i.value.(*cachedGraph)
	if cg == nil {
		return nil
	}
	return cg.g
}

// Weighted reports whether the parsed instance carries vertex weights.
func (i *Instance) Weighted() bool {
	switch v := i.value.(type) {
	case *cachedGraph:
		return v.g.Weighted()
	case *hypergraph.Hypergraph:
		return v.Weighted()
	}
	return false
}

// SolveReader reads a hypergraph from r in the given graphio format
// (FormatAuto sniffs), consults the instance cache by content hash, and
// runs Solve on the result. Admission happens before the body is read, so
// parsing and CSR construction are bounded by the gate too.
func (s *Solver) SolveReader(ctx context.Context, r io.Reader, f graphio.Format) (*core.Result, *Instance, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.release()
	inst := new(Instance)
	h, err := s.readHypergraphInto(ctx, r, f, inst)
	if err != nil {
		return nil, nil, wrapCancelled(ctx, err)
	}
	res, err := s.solve(ctx, h)
	if err != nil {
		return nil, inst, err
	}
	return res, inst, nil
}

// MaxISReader is MaxIS over a serialized graph, with the same caching and
// admission behaviour as SolveReader.
func (s *Solver) MaxISReader(ctx context.Context, r io.Reader, f graphio.Format) (*ISResult, *Instance, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.release()
	inst := new(Instance)
	g, cg, err := s.readGraphInto(ctx, r, f, inst)
	if err != nil {
		return nil, nil, wrapCancelled(ctx, err)
	}
	res, err := s.maxIS(ctx, g, cg)
	if err != nil {
		return nil, inst, err
	}
	return res, inst, nil
}

// parseGraphEntry/dimsGraphEntry and their hypergraph twins are the
// readInstance plumbing, named (not closures) so the cache-hit path
// carries no per-call closure values.

func parseGraphEntry(body []byte, f graphio.Format) (any, error) {
	g, err := graphio.ParseGraph(body, f)
	if err != nil {
		return nil, err
	}
	return &cachedGraph{g: g}, nil
}

func dimsGraphEntry(v any) (int, int) {
	cg := v.(*cachedGraph)
	return cg.g.N(), cg.g.M()
}

func parseHypergraphEntry(body []byte, f graphio.Format) (any, error) {
	return graphio.ParseHypergraph(body, f)
}

func dimsHypergraphEntry(v any) (int, int) {
	h := v.(*hypergraph.Hypergraph)
	return h.N(), h.M()
}

// readInstance funnels both substrates through one read-then-parse flow,
// filling the caller-owned inst in place. The body lands in pooled
// scratch and is parsed from there; the parsed instance copies what it
// keeps, so the scratch is free for the next request once this returns.
// With a cache the body is hashed through pooled sha256 state (the key
// is the whole point), and a hit borrows the entry's canonical key
// string — the whole hit path allocates nothing. Without a cache nothing
// is hashed and Instance.Key stays empty.
func (s *Solver) readInstance(ctx context.Context, r io.Reader, f graphio.Format, kind string, inst *Instance,
	parse func([]byte, graphio.Format) (any, error),
	dims func(any) (int, int)) (any, error) {
	tr := obs.TraceFrom(ctx)
	*inst = Instance{Kind: kind}
	sc := grabServeScratch()
	defer releaseServeScratch(sc)
	sp := tr.Start("read_hash")
	body, err := sc.readAll(r)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("%w: %w", ErrReadInstance, err)
	}
	if s.cache != nil {
		keyHex := sc.key(kind, f.String(), body)
		sp.End()
		lookup := tr.Start("cache_lookup")
		if cached, canonical, ok := s.cache.getBytes(keyHex); ok {
			inst.Key = canonical
			inst.CacheHit = true
			inst.N, inst.M = dims(cached)
			inst.value = cached
			lookup.SetDetail("hit")
			lookup.SetDims(inst.N, inst.M)
			lookup.End()
			return cached, nil
		}
		lookup.SetDetail("miss")
		lookup.End()
		inst.Key = string(keyHex)
	} else {
		sp.End()
	}
	parseSp := tr.Start("parse")
	v, err := parse(body, f)
	parseSp.End()
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.put(inst.Key, v)
	}
	inst.N, inst.M = dims(v)
	inst.value = v
	parseSp.SetDims(inst.N, inst.M)
	return v, nil
}

// readHypergraphInto parses a hypergraph through the cache.
func (s *Solver) readHypergraphInto(ctx context.Context, r io.Reader, f graphio.Format, inst *Instance) (*hypergraph.Hypergraph, error) {
	v, err := s.readInstance(ctx, r, f, KindHypergraph, inst, parseHypergraphEntry, dimsHypergraphEntry)
	if err != nil {
		return nil, err
	}
	return v.(*hypergraph.Hypergraph), nil
}

// readGraphInto parses a graph through the cache, returning both the CSR
// and the cache entry that lazily owns its packed bitset adjacency.
func (s *Solver) readGraphInto(ctx context.Context, r io.Reader, f graphio.Format, inst *Instance) (*graph.Graph, *cachedGraph, error) {
	v, err := s.readInstance(ctx, r, f, KindGraph, inst, parseGraphEntry, dimsGraphEntry)
	if err != nil {
		return nil, nil, err
	}
	cg := v.(*cachedGraph)
	return cg.g, cg, nil
}
