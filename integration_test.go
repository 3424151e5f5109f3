// integration_test.go exercises cross-module flows through the public
// facade: the full hardness pipeline (hypergraph → conflict graph →
// oracle → multicolouring), the containment algorithm against the exact
// optimum, the distributed pipeline, and the Lemma 2.1 round trip — each
// verified by the first-principles checkers.
package pslocal_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pslocal"
)

func TestIntegrationHardnessPipelineAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, planted, err := pslocal.PlantedCF(40, 30, 3, 3, 5, rng)
	if err != nil {
		t.Fatalf("PlantedCF: %v", err)
	}
	if !pslocal.IsConflictFree(h, planted) {
		t.Fatal("planted witness not conflict-free")
	}
	oracles := map[string]string{
		"exact":    "exact",
		"implicit": "implicit",
		"greedy":   "greedy-mindeg",
	}
	for name, oracle := range oracles {
		t.Run(name, func(t *testing.T) {
			sv := pslocal.NewSolver(pslocal.WithK(3), pslocal.WithOracle(oracle))
			res, err := sv.Solve(context.Background(), h)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if err := pslocal.VerifyReduction(h, res); err != nil {
				t.Fatalf("verification: %v", err)
			}
			// The planted witness guarantees α(G_k) = m, so the exact
			// oracle must finish in one phase with exactly k colours.
			if name == "exact" && (len(res.Phases) != 1 || res.TotalColors != 3) {
				t.Errorf("exact mode: phases=%d colours=%d, want 1 and 3",
					len(res.Phases), res.TotalColors)
			}
		})
	}
}

func TestIntegrationLemmaRoundTripViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, planted, err := pslocal.PlantedCF(30, 15, 3, 3, 5, rng)
	if err != nil {
		t.Fatalf("PlantedCF: %v", err)
	}
	ix, err := pslocal.NewConflictIndex(h, 3)
	if err != nil {
		t.Fatalf("NewConflictIndex: %v", err)
	}
	is, err := pslocal.ColoringToIS(ix, planted)
	if err != nil {
		t.Fatalf("ColoringToIS: %v", err)
	}
	if len(is) != h.M() {
		t.Fatalf("|I_f| = %d, want m = %d (Lemma 2.1a)", len(is), h.M())
	}
	f, err := pslocal.ISToColoring(ix, is)
	if err != nil {
		t.Fatalf("ISToColoring: %v", err)
	}
	if !pslocal.IsConflictFree(h, f) {
		t.Fatal("round-trip colouring lost conflict-freeness")
	}
	// The explicit conflict graph agrees with the predicate for the
	// triples of the independent set.
	g, err := pslocal.BuildConflictGraph(ix)
	if err != nil {
		t.Fatalf("BuildConflictGraph: %v", err)
	}
	if g.N() != ix.NumNodes() {
		t.Errorf("graph nodes %d != index %d", g.N(), ix.NumNodes())
	}
	for i := 0; i < len(is) && i < 5; i++ {
		for j := i + 1; j < len(is) && j < 5; j++ {
			adj, err := pslocal.ConflictAdjacent(ix, is[i], is[j])
			if err != nil {
				t.Fatalf("ConflictAdjacent: %v", err)
			}
			if adj {
				t.Fatalf("independent-set triples %v and %v adjacent", is[i], is[j])
			}
		}
	}
}

func TestIntegrationContainmentAgainstExact(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for _, delta := range []float64{1.0, 0.5} {
		g := pslocal.GnP(70, 0.07, rng)
		res, err := pslocal.NewSolver(pslocal.WithCarving(delta)).MaxIS(ctx, g)
		if err != nil {
			t.Fatalf("carving: %v", err)
		}
		if err := pslocal.VerifyIndependentSet(g, res.Set); err != nil {
			t.Fatalf("carving output: %v", err)
		}
		opt, err := pslocal.NewSolver(pslocal.WithOracle("exact")).MaxIS(ctx, g)
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		if float64(len(res.Set))*(1+delta) < float64(len(opt.Set))-1e-9 {
			t.Errorf("δ=%v: carving %d below α/(1+δ) with α=%d", delta, len(res.Set), len(opt.Set))
		}
		bound := int(math.Ceil(math.Log(float64(g.N()))/math.Log(1+delta))) + 2
		if res.Locality > bound {
			t.Errorf("δ=%v: locality %d above O(log n) bound %d", delta, res.Locality, bound)
		}
	}
}

func TestIntegrationDistributedPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h, _, err := pslocal.PlantedCF(20, 40, 2, 3, 5, rng)
	if err != nil {
		t.Fatalf("PlantedCF: %v", err)
	}
	res, err := pslocal.ReduceLocalRandomized(h, 2, 99)
	if err != nil {
		t.Fatalf("ReduceLocalRandomized: %v", err)
	}
	if err := pslocal.VerifyConflictFreeMulti(h, res.Multicoloring); err != nil {
		t.Fatalf("verification: %v", err)
	}
	if res.VirtualRounds <= 0 || res.HostRounds <= res.VirtualRounds {
		t.Errorf("round accounting implausible: %+v", res)
	}
}

func TestIntegrationSiblingProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := pslocal.GnP(50, 0.1, rng)
	ds, err := pslocal.GreedyDominatingSet(g)
	if err != nil {
		t.Fatalf("GreedyDominatingSet: %v", err)
	}
	if len(ds) == 0 {
		t.Error("empty dominating set on a non-empty graph")
	}
	h, err := pslocal.NewHypergraph(20, [][]int32{{0, 1, 2}, {3, 4, 5, 6}, {7, 8, 9}, {1, 5, 9, 13}})
	if err != nil {
		t.Fatalf("NewHypergraph: %v", err)
	}
	split, err := pslocal.WeakSplitting(h, rng)
	if err != nil {
		t.Fatalf("WeakSplitting: %v", err)
	}
	if len(split) != h.N() {
		t.Errorf("splitting covers %d vertices, want %d", len(split), h.N())
	}
	d, err := pslocal.NetworkDecomposition(g, nil)
	if err != nil {
		t.Fatalf("NetworkDecomposition: %v", err)
	}
	colours, err := pslocal.DecompositionColouring(g, d)
	if err != nil {
		t.Fatalf("DecompositionColouring: %v", err)
	}
	bad := false
	g.ForEachEdge(func(u, v int32) bool {
		if colours[u] == colours[v] {
			bad = true
			return false
		}
		return true
	})
	if bad {
		t.Error("decomposition colouring improper")
	}
}

func TestIntegrationModelContrast(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := pslocal.GnP(200, 0.02, rng)
	luby, lres, err := pslocal.LubyMIS(g, 3, pslocal.LocalOptions{})
	if err != nil {
		t.Fatalf("LubyMIS: %v", err)
	}
	greedy, sres, err := pslocal.SLOCALGreedyMIS(g, pslocal.IdentityOrder(g.N()))
	if err != nil {
		t.Fatalf("SLOCALGreedyMIS: %v", err)
	}
	if err := pslocal.VerifyIndependentSet(g, luby); err != nil {
		t.Errorf("luby: %v", err)
	}
	if err := pslocal.VerifyIndependentSet(g, greedy); err != nil {
		t.Errorf("greedy: %v", err)
	}
	if sres.Locality > 1 {
		t.Errorf("SLOCAL greedy locality %d, want <= 1", sres.Locality)
	}
	if lres.Rounds <= 0 || lres.Messages <= 0 {
		t.Errorf("LOCAL accounting implausible: %+v", lres)
	}
}

func TestIntegrationExperimentHarnessEndToEnd(t *testing.T) {
	cfg := pslocal.ExperimentConfig{Seed: 7, Quick: true}
	tables, err := pslocal.AllExperiments(cfg)
	if err != nil {
		t.Fatalf("a claim failed: %v", err)
	}
	figs, err := pslocal.AllFigures(cfg)
	if err != nil {
		t.Fatalf("a figure claim failed: %v", err)
	}
	abl, err := pslocal.AllAblations(cfg)
	if err != nil {
		t.Fatalf("an ablation failed: %v", err)
	}
	var sink nopWriter
	if err := pslocal.RenderTables(&sink, append(append(tables, figs...), abl...)); err != nil {
		t.Fatalf("render: %v", err)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
