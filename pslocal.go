// Package pslocal is the public API of this repository, a full
// reproduction of "P-SLOCAL-Completeness of Maximum Independent Set
// Approximation" (Yannic Maus, PODC 2019). It re-exports the supported
// surface of the internal packages:
//
//   - hypergraphs and conflict-free (multi)colourings, the source problem
//     of the paper's reduction;
//   - the conflict graph G_k of Section 2 with both directions of the
//     Lemma 2.1 correspondence;
//   - the Theorem 1.1 reduction (conflict-free multicolouring via an
//     approximate MaxIS oracle);
//   - the MaxIS oracle suite (exact, greedy family, Ramsey clique
//     removal);
//   - the LOCAL and SLOCAL model simulators with the paper's baseline
//     algorithms, including the ball-carving (1+δ)-approximation that
//     realises the containment direction.
//
// The entry point is the Solver (solver.go): constructed once via
// functional options, it owns the engine configuration, the oracle
// selection, a bounded admission gate and an instance cache, and every
// method takes a per-call context. Quick start (see examples/quickstart
// for a runnable version):
//
//	h, planted, _ := pslocal.PlantedCF(60, 24, 3, 3, 5, rng)
//	sv := pslocal.NewSolver(pslocal.WithK(3))
//	res, _ := sv.Solve(ctx, h)
//	err := pslocal.VerifyReduction(h, res) // nil: conflict-free multicolouring
//	_ = planted
package pslocal

import (
	"io"
	"math/rand"

	"pslocal/internal/cfcolor"
	"pslocal/internal/core"
	"pslocal/internal/domset"
	"pslocal/internal/engine"
	"pslocal/internal/experiments"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/local"
	"pslocal/internal/maxis"
	"pslocal/internal/slocal"
	"pslocal/internal/splitting"
	"pslocal/internal/verify"
)

// Graph types and generators (substrate S1).
type (
	// Graph is an immutable simple undirected graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
)

// NewGraphBuilder returns a builder for a graph on n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// MaxVertexWeight is the largest admissible vertex weight (shared by
// graphs and hypergraphs); the cap keeps every solver quantity in int64.
const MaxVertexWeight = graph.MaxWeight

// GraphWithWeights returns a graph sharing g's adjacency structure with
// the given vertex weights (nil restores the unweighted form; an
// all-unit vector normalises to unweighted). Weighted graphs flow
// through every oracle and the Solver unchanged — the objective becomes
// total set weight.
func GraphWithWeights(g *Graph, ws []int64) (*Graph, error) { return graph.WithWeights(g, ws) }

// GnP returns an Erdős–Rényi random graph.
func GnP(n int, p float64, rng *rand.Rand) *Graph { return graph.GnP(n, p, rng) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Hypergraph types and generators (substrate S2).
type (
	// Hypergraph is an immutable hypergraph with indexed hyperedges.
	Hypergraph = hypergraph.Hypergraph
)

// NewHypergraph builds a hypergraph on n vertices from hyperedges.
func NewHypergraph(n int, edges [][]int32) (*Hypergraph, error) {
	return hypergraph.New(n, edges)
}

// NewWeightedHypergraph builds a vertex-weighted hypergraph; a nil or
// all-unit weight vector yields the same instance as NewHypergraph.
func NewWeightedHypergraph(n int, edges [][]int32, ws []int64) (*Hypergraph, error) {
	return hypergraph.NewWeighted(n, edges, ws)
}

// HypergraphWithWeights returns a hypergraph sharing h's edge structure
// with the given vertex weights (nil restores the unweighted form).
func HypergraphWithWeights(h *Hypergraph, ws []int64) (*Hypergraph, error) {
	return hypergraph.WithWeights(h, ws)
}

// PlantedCF returns an almost-uniform hypergraph with a hidden
// conflict-free k-colouring — the instance family the reduction's analysis
// assumes (see DESIGN.md, Substitutions).
func PlantedCF(n, m, k, sizeLo, sizeHi int, rng *rand.Rand) (*Hypergraph, []int32, error) {
	return hypergraph.PlantedCF(n, m, k, sizeLo, sizeHi, rng)
}

// IntervalHypergraph returns a [DN18]-style interval hypergraph.
func IntervalHypergraph(n, m, lenLo, lenHi int, rng *rand.Rand) (*Hypergraph, error) {
	return hypergraph.Interval(n, m, lenLo, lenHi, rng)
}

// Graph I/O (the internal/graphio subsystem). Graphs and hypergraphs
// read and write in three interchangeable formats; the same files work
// with the CLI -in/-out flags and as cmd/cfserve request bodies.

// GraphFormat identifies a supported instance encoding.
type GraphFormat = graphio.Format

// The supported formats. FormatAuto sniffs the input on reads and
// selects the edge list on writes.
const (
	// FormatAuto sniffs the format from the input's first decisive line.
	FormatAuto = graphio.FormatAuto
	// FormatEdgeList is the native "graph n m" / "hypergraph n m" text
	// format.
	FormatEdgeList = graphio.FormatEdgeList
	// FormatDIMACS is the DIMACS .col format (graphs only).
	FormatDIMACS = graphio.FormatDIMACS
	// FormatJSON is the single-object JSON document format.
	FormatJSON = graphio.FormatJSON
)

// ParseGraphFormat maps a flag spelling ("auto", "edgelist", "dimacs",
// "json") onto a GraphFormat.
func ParseGraphFormat(s string) (GraphFormat, error) { return graphio.ParseFormat(s) }

// ReadGraph parses a graph from r (see ExampleReadGraph).
func ReadGraph(r io.Reader, f GraphFormat) (*Graph, error) { return graphio.ReadGraph(r, f) }

// WriteGraph writes g to w; the output round-trips bit-identically
// through ReadGraph.
func WriteGraph(w io.Writer, g *Graph, f GraphFormat) error { return graphio.WriteGraph(w, g, f) }

// ReadHypergraph parses a hypergraph from r (DIMACS is graphs-only).
func ReadHypergraph(r io.Reader, f GraphFormat) (*Hypergraph, error) {
	return graphio.ReadHypergraph(r, f)
}

// WriteHypergraph writes h to w.
func WriteHypergraph(w io.Writer, h *Hypergraph, f GraphFormat) error {
	return graphio.WriteHypergraph(w, h, f)
}

// WriteResult writes a reduction result as the JSON document shared by
// the cfreduce -out flag and the cfserve response body.
func WriteResult(w io.Writer, res *ReduceResult) error { return graphio.WriteResult(w, res) }

// ReadResult parses a reduction-result document written by WriteResult.
func ReadResult(r io.Reader) (*ReduceResult, error) { return graphio.ReadResult(r) }

// Colourings (substrate S11).
type (
	// Coloring is a partial vertex colouring (0 = uncoloured).
	Coloring = cfcolor.Coloring
	// Multicoloring assigns colour sets to vertices.
	Multicoloring = cfcolor.Multicoloring
)

// IsConflictFree reports whether every edge of h is happy under c.
func IsConflictFree(h *Hypergraph, c Coloring) bool { return cfcolor.IsConflictFree(h, c) }

// IsConflictFreeMulti reports whether every edge of h is happy under mc.
func IsConflictFreeMulti(h *Hypergraph, mc Multicoloring) bool {
	return cfcolor.IsConflictFreeMulti(h, mc)
}

// DyadicIntervalColoring returns the log-colour conflict-free colouring
// for all interval hypergraphs on n line vertices.
func DyadicIntervalColoring(n int) Coloring { return cfcolor.DyadicIntervalColoring(n) }

// The execution engine (options layer). EngineOptions carry the worker
// pool width and cancellation context through conflict-graph construction,
// the reduction and the experiment harness; the zero value is serial.
type EngineOptions = engine.Options

// ParallelEngine returns EngineOptions selecting GOMAXPROCS workers.
func ParallelEngine() EngineOptions { return engine.Parallel() }

// The conflict graph and Lemma 2.1 (the paper's Section 2).
type (
	// Triple is a conflict-graph node (e, v, c).
	Triple = core.Triple
	// ConflictIndex numbers the triples of G_k densely.
	ConflictIndex = core.Index
)

// NewConflictIndex builds the triple numbering of G_k.
func NewConflictIndex(h *Hypergraph, k int) (*ConflictIndex, error) { return core.NewIndex(h, k) }

// BuildConflictGraph materialises G_k on the serial path.
func BuildConflictGraph(ix *ConflictIndex) (*Graph, error) { return core.Build(ix) }

// BuildConflictGraphOpts materialises G_k on opts' worker pool; the CSR is
// identical to the serial path for every worker count.
func BuildConflictGraphOpts(ix *ConflictIndex, opts EngineOptions) (*Graph, error) {
	return core.BuildOpts(ix, opts)
}

// ConflictAdjacent answers adjacency in G_k straight from the definition.
func ConflictAdjacent(ix *ConflictIndex, t1, t2 Triple) (bool, error) {
	return core.Adjacent(ix, t1, t2)
}

// ColoringToIS implements Lemma 2.1(a).
func ColoringToIS(ix *ConflictIndex, f Coloring) ([]Triple, error) {
	return core.ColoringToIS(ix, f)
}

// ISToColoring implements Lemma 2.1(b).
func ISToColoring(ix *ConflictIndex, is []Triple) (Coloring, error) {
	return core.ISToColoring(ix, is)
}

// The Theorem 1.1 reduction.
type (
	// ReduceResult is the reduction outcome with per-phase statistics.
	ReduceResult = core.Result
	// PhaseStat records one reduction phase.
	PhaseStat = core.PhaseStat
	// ReduceMode selects the per-phase MaxIS strategy.
	ReduceMode = core.Mode
)

// Reduction modes.
const (
	// ModeOracle materialises G_k and runs the selected oracle on it.
	ModeOracle = core.ModeOracle
	// ModeExactHinted solves each phase exactly (λ = 1).
	ModeExactHinted = core.ModeExactHinted
	// ModeImplicitFirstFit greedily solves the implicit G_k (scalable).
	ModeImplicitFirstFit = core.ModeImplicitFirstFit
)

// PhaseBound returns the paper's ρ = λ·ln(m)+1 phase bound.
func PhaseBound(lambda float64, m int) int { return core.PhaseBound(lambda, m) }

// LocalReduceResult is the outcome of the distributed randomized
// pipeline, with LOCAL-round accounting.
type LocalReduceResult = core.LocalResult

// ReduceLocalRandomized runs the fully distributed (LOCAL model,
// randomized) reduction: Luby's MIS over the implicit conflict graph,
// simulated on H's incidence structure, phase by phase.
func ReduceLocalRandomized(h *Hypergraph, k int, seed int64) (*LocalReduceResult, error) {
	return core.ReduceLocalRandomized(nil, h, k, seed)
}

// Oracle is a MaxIS approximation algorithm (substrate S5).
type Oracle = maxis.Oracle

// OracleFactory constructs a named oracle; deterministic oracles ignore
// the seed.
type OracleFactory = maxis.Factory

// OraclePortfolio races several member oracles per Solve call over the
// engine worker pool and keeps the largest independent set (the oracle
// execution layer; see DESIGN.md). The registry also resolves
// "portfolio:<a>,<b>,..." names to portfolios via LookupOracle.
type OraclePortfolio = maxis.Portfolio

// NewOraclePortfolio builds a portfolio over the given members; configure
// its fan-out with SetEngine (a Solver running it overrides that with its
// own WithWorkers pool).
func NewOraclePortfolio(members ...Oracle) (*OraclePortfolio, error) {
	return maxis.NewPortfolio(members...)
}

// RegisterOracle adds a named oracle to the registry.
func RegisterOracle(name string, f OracleFactory) error { return maxis.Register(name, f) }

// LookupOracle constructs a registered oracle by name.
func LookupOracle(name string, seed int64) (Oracle, error) { return maxis.Lookup(name, seed) }

// OracleNames lists the registered oracle names in ascending order.
func OracleNames() []string { return maxis.Names() }

// IndependentSetWeight returns the total vertex weight of nodes:
// Σ w(v) on weighted graphs, |nodes| otherwise. It never allocates.
func IndependentSetWeight(g *Graph, nodes []int32) int64 { return maxis.SetWeight(g, nodes) }

// VerifyWeightedIndependentSet checks nodes is an independent set of g
// whose total weight equals reported.
func VerifyWeightedIndependentSet(g *Graph, nodes []int32, reported int64) error {
	return maxis.VerifyWeighted(g, nodes, reported)
}

// GreedyWeightedMaxIS returns the weight/(degree+1)-ordered greedy
// independent set — the weighted counterpart of the "greedy-mindeg"
// oracle (identical to it on unweighted graphs up to tie order).
func GreedyWeightedMaxIS(g *Graph) []int32 { return maxis.GreedyWeighted(g) }

// Model simulators (substrates S3, S4, S6, S7).
type (
	// LocalOptions configures a LOCAL model run.
	LocalOptions = local.Options
	// LocalResult reports rounds, messages and outputs.
	LocalResult = local.Result
	// Decomposition is a (C, D) network decomposition.
	Decomposition = slocal.Decomposition
)

// LubyMIS runs Luby's randomized MIS in the LOCAL simulator.
func LubyMIS(g *Graph, seed int64, opts LocalOptions) ([]int32, *LocalResult, error) {
	return local.LubyMIS(g, seed, opts)
}

// SLOCALGreedyMIS runs the locality-1 greedy MIS of the paper's
// introduction and reports the measured locality.
func SLOCALGreedyMIS(g *Graph, order []int32) ([]int32, *slocal.Result, error) {
	return slocal.GreedyMIS(g, order)
}

// NetworkDecomposition carves a (O(log n), O(log n)) decomposition.
func NetworkDecomposition(g *Graph, order []int32) (*Decomposition, error) {
	return slocal.NetworkDecomposition(g, order)
}

// IdentityOrder returns 0..n-1, the default SLOCAL processing order.
func IdentityOrder(n int) []int32 { return slocal.IdentityOrder(n) }

// DecompositionColouring derandomizes (Δ+1)-colouring through a network
// decomposition (the Section 1 blueprint).
func DecompositionColouring(g *Graph, d *Decomposition) ([]int32, error) {
	return slocal.DecompositionColouring(g, d)
}

// Sibling P-SLOCAL-complete problems (paper Section 1 list).

// GreedyDominatingSet returns a (ln(Δ+1)+1)-approximate dominating set.
func GreedyDominatingSet(g *Graph) ([]int32, error) { return domset.GreedyDominatingSet(g) }

// WeakSplitting 2-colours h so no hyperedge is monochromatic, via
// Moser–Tardos resampling.
func WeakSplitting(h *Hypergraph, rng *rand.Rand) ([]int32, error) {
	return splitting.MoserTardos(h, rng, 0)
}

// Verification.

// VerifyIndependentSet checks independence in g.
func VerifyIndependentSet(g *Graph, nodes []int32) error { return verify.IndependentSet(g, nodes) }

// VerifyReduction checks a reduction result end to end against its input.
func VerifyReduction(h *Hypergraph, res *ReduceResult) error { return verify.ReductionResult(h, res) }

// VerifyConflictFreeMulti checks a multicolouring.
func VerifyConflictFreeMulti(h *Hypergraph, mc Multicoloring) error {
	return verify.ConflictFreeMulti(h, mc)
}

// Experiments (the reproduction harness).
type (
	// ExperimentConfig seeds and sizes the experiment grids.
	ExperimentConfig = experiments.Config
	// ExperimentTable is a rendered experiment.
	ExperimentTable = experiments.Table
)

// AllExperiments regenerates tables E1–E10.
func AllExperiments(cfg ExperimentConfig) ([]*ExperimentTable, error) {
	return experiments.AllTables(cfg)
}

// AllFigures regenerates the figure-equivalents F1–F3.
func AllFigures(cfg ExperimentConfig) ([]*ExperimentTable, error) {
	return experiments.AllFigures(cfg)
}

// AllAblations regenerates the ablation tables A1–A3.
func AllAblations(cfg ExperimentConfig) ([]*ExperimentTable, error) {
	return experiments.AllAblations(cfg)
}

// RenderTables renders tables sequentially with blank-line separators.
func RenderTables(w io.Writer, tables []*ExperimentTable) error {
	for i, t := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}
