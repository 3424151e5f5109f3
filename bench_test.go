// bench_test.go regenerates every experiment of DESIGN.md Section 4 as a
// testing.B benchmark: E1–E10 (the paper's claims), F1–F3 (figure
// equivalents) and A1–A3 (ablations), plus micro-benchmarks for the
// hot paths (conflict-graph construction, exact solving with and without
// the clique bound, implicit vs explicit first-fit). The benchmarks use
// the Quick grids; `cmd/psctab` prints the full grids.
package pslocal_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"pslocal"
	"pslocal/internal/core"
	"pslocal/internal/engine"
	"pslocal/internal/experiments"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
)

var benchCfg = experiments.Config{Seed: 42, Quick: true}

// benchTable runs one experiment generator as a benchmark body and fails
// the benchmark if the paper's claim does not hold.
func benchTable(b *testing.B, fn func(experiments.Config) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fn(benchCfg); err != nil {
			b.Fatalf("claim failed: %v", err)
		}
	}
}

func BenchmarkE1ConflictGraphSize(b *testing.B) { benchTable(b, experiments.E1ConflictGraphSize) }
func BenchmarkE2Lemma21a(b *testing.B)          { benchTable(b, experiments.E2Lemma21a) }
func BenchmarkE3Lemma21b(b *testing.B)          { benchTable(b, experiments.E3Lemma21b) }
func BenchmarkE4PhaseDecay(b *testing.B)        { benchTable(b, experiments.E4PhaseDecay) }
func BenchmarkE5ColorBudget(b *testing.B)       { benchTable(b, experiments.E5ColorBudget) }
func BenchmarkE6Containment(b *testing.B)       { benchTable(b, experiments.E6Containment) }
func BenchmarkE7OracleQuality(b *testing.B)     { benchTable(b, experiments.E7OracleQuality) }
func BenchmarkE8ModelBaselines(b *testing.B)    { benchTable(b, experiments.E8ModelBaselines) }
func BenchmarkE9NetDecomp(b *testing.B)         { benchTable(b, experiments.E9NetDecomp) }
func BenchmarkE10IntervalCF(b *testing.B)       { benchTable(b, experiments.E10IntervalCF) }
func BenchmarkE11DistributedPipeline(b *testing.B) {
	benchTable(b, experiments.E11DistributedPipeline)
}
func BenchmarkE12CompleteSiblings(b *testing.B) { benchTable(b, experiments.E12CompleteSiblings) }

func BenchmarkF1DecayCurve(b *testing.B)        { benchTable(b, experiments.F1DecayCurve) }
func BenchmarkF2LocalityHistogram(b *testing.B) { benchTable(b, experiments.F2LocalityHistogram) }
func BenchmarkF3LambdaVsDensity(b *testing.B)   { benchTable(b, experiments.F3LambdaVsDensity) }

func BenchmarkAblationImplicitVsExplicit(b *testing.B) {
	benchTable(b, experiments.A1ImplicitVsExplicit)
}
func BenchmarkAblationCliqueBound(b *testing.B) { benchTable(b, experiments.A2CliqueBound) }
func BenchmarkAblationOracleOrder(b *testing.B) { benchTable(b, experiments.A3OrderSensitivity) }

// --- micro-benchmarks for the hot paths ---

// benchInstance builds one shared planted instance and its index.
func benchInstance(b *testing.B, m, k int) (*hypergraph.Hypergraph, *core.Index) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	h, _, err := hypergraph.PlantedCF(30, m, k, 3, 5, rng)
	if err != nil {
		b.Fatalf("generator: %v", err)
	}
	ix, err := core.NewIndex(h, k)
	if err != nil {
		b.Fatalf("index: %v", err)
	}
	return h, ix
}

func BenchmarkConflictGraphBuild(b *testing.B) {
	_, ix := benchInstance(b, 20, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(ix); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLargeIndex is the serial-vs-parallel construction instance of the
// engine acceptance criteria: PlantedCF with n≈2000, m≈800, k=3.
func benchLargeIndex(b *testing.B) *core.Index {
	b.Helper()
	rng := rand.New(rand.NewSource(21))
	h, _, err := hypergraph.PlantedCF(2000, 800, 3, 3, 5, rng)
	if err != nil {
		b.Fatalf("generator: %v", err)
	}
	ix, err := core.NewIndex(h, 3)
	if err != nil {
		b.Fatalf("index: %v", err)
	}
	return ix
}

func benchBuildLarge(b *testing.B, opts engine.Options) {
	ix := benchLargeIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := core.BuildOpts(ix, opts)
		if err != nil {
			b.Fatal(err)
		}
		if g.N() != ix.NumNodes() {
			b.Fatalf("built %d nodes, want %d", g.N(), ix.NumNodes())
		}
	}
}

func BenchmarkConflictGraphBuildLargeSerial(b *testing.B) {
	benchBuildLarge(b, engine.Options{Workers: 1})
}

func BenchmarkConflictGraphBuildLargeParallel(b *testing.B) {
	benchBuildLarge(b, engine.Parallel())
}

func BenchmarkImplicitFirstFit(b *testing.B) {
	_, ix := benchInstance(b, 20, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := core.FirstFitTriples(ix); len(set) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkExplicitFirstFit(b *testing.B) {
	_, ix := benchInstance(b, 20, 3)
	g, err := core.Build(ix)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := maxis.FirstFitOracle{}.Solve(g)
		if err != nil || len(set) == 0 {
			b.Fatalf("solve: %v (%d nodes)", err, len(set))
		}
	}
}

func BenchmarkExactHinted(b *testing.B) {
	_, ix := benchInstance(b, 16, 3)
	g, err := core.Build(ix)
	if err != nil {
		b.Fatal(err)
	}
	hint := ix.EdgeCliqueHint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxis.ExactOpts(g, maxis.ExactOptions{CliqueHint: hint}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactPlain(b *testing.B) {
	_, ix := benchInstance(b, 16, 3)
	g, err := core.Build(ix)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := maxis.Exact(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstFitScratchReuse(b *testing.B) {
	_, ix := benchInstance(b, 20, 3)
	var scratch core.FirstFitScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := scratch.FirstFit(ix); len(set) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkReduceImplicitEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	h, _, err := pslocal.PlantedCF(60, 40, 3, 3, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	sv := pslocal.NewSolver(pslocal.WithK(3), pslocal.WithMode(pslocal.ModeImplicitFirstFit))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sv.Solve(ctx, h)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalColors == 0 {
			b.Fatal("no colours")
		}
	}
}

// benchPortfolio races the full greedy suite on a large materialised
// conflict graph, the per-phase workload of the oracle execution layer.
func benchPortfolio(b *testing.B, opts engine.Options) {
	ix := benchLargeIndex(b)
	g, err := core.BuildOpts(ix, engine.Parallel())
	if err != nil {
		b.Fatal(err)
	}
	// The greedy family only: clique-removal costs seconds per solve at
	// this size and would drown the fan-out signal.
	p, err := pslocal.LookupOracle("portfolio:greedy-mindeg,greedy-firstfit,greedy-random", 7)
	if err != nil {
		b.Fatal(err)
	}
	p.(*pslocal.OraclePortfolio).SetEngine(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := p.Solve(g)
		if err != nil || len(set) == 0 {
			b.Fatalf("solve: %v (%d nodes)", err, len(set))
		}
	}
}

func BenchmarkPortfolioOracleSerial(b *testing.B)   { benchPortfolio(b, engine.Options{Workers: 1}) }
func BenchmarkPortfolioOracleParallel(b *testing.B) { benchPortfolio(b, engine.Parallel()) }

// BenchmarkSLOCALGreedyMIS exercises the flat-array View scratch: a full
// SLOCAL pass over a mid-size random graph, one BFS ball per node.
func BenchmarkSLOCALGreedyMIS(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g := pslocal.GnP(2000, 0.004, rng)
	order := pslocal.IdentityOrder(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis, _, err := pslocal.SLOCALGreedyMIS(g, order)
		if err != nil || len(mis) == 0 {
			b.Fatalf("greedy MIS: %v (%d nodes)", err, len(mis))
		}
	}
}

func BenchmarkBallCarving(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g := pslocal.GnP(80, 0.06, rng)
	sv := pslocal.NewSolver(pslocal.WithCarving(1.0))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.MaxIS(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkDecomposition(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	g := pslocal.GnP(200, 0.03, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pslocal.NetworkDecomposition(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver-backed pipeline (the serving path of cmd/cfserve) ---

// benchSolverBody serializes the benchmark reduction instance the way a
// cfserve client would post it.
func benchSolverBody(b *testing.B) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	h, _, err := pslocal.PlantedCF(60, 40, 3, 3, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pslocal.WriteHypergraph(&buf, h, pslocal.FormatEdgeList); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkSolverReduceCold measures the full serve path on a cache miss:
// admission, parse, and the reduction (a fresh single-entry cache per
// iteration keeps every submission cold).
func BenchmarkSolverReduceCold(b *testing.B) {
	body := benchSolverBody(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := pslocal.NewSolver(pslocal.WithK(3), pslocal.WithCache(1))
		res, inst, err := sv.SolveReader(ctx, bytes.NewReader(body), pslocal.FormatAuto)
		if err != nil {
			b.Fatalf("cold solve: %v", err)
		}
		if res.TotalColors == 0 || inst.CacheHit {
			b.Fatalf("cold solve: colours %d, hit %v", res.TotalColors, inst.CacheHit)
		}
	}
}

// BenchmarkSolverReduceCacheHit measures the hot-instance path: the same
// body resubmitted to one shared Solver skips parsing and CSR
// construction, so the delta against the cold benchmark is the cache win.
func BenchmarkSolverReduceCacheHit(b *testing.B) {
	body := benchSolverBody(b)
	ctx := context.Background()
	sv := pslocal.NewSolver(pslocal.WithK(3), pslocal.WithCache(4))
	if _, _, err := sv.SolveReader(ctx, bytes.NewReader(body), pslocal.FormatAuto); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, inst, err := sv.SolveReader(ctx, bytes.NewReader(body), pslocal.FormatAuto)
		if err != nil {
			b.Fatalf("hot solve: %v", err)
		}
		if res.TotalColors == 0 || !inst.CacheHit {
			b.Fatalf("hot solve: colours %d, hit %v", res.TotalColors, inst.CacheHit)
		}
	}
}
