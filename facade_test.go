// facade_test.go covers the public-surface helpers not exercised by the
// integration flows: constructors, generators, and the thin re-exports.
package pslocal_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"pslocal"
)

func TestFacadeGraphConstructors(t *testing.T) {
	b := pslocal.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	if c := pslocal.Cycle(7); c.M() != 7 {
		t.Errorf("Cycle(7).M() = %d", c.M())
	}
	if gr := pslocal.Grid(2, 5); gr.N() != 10 {
		t.Errorf("Grid(2,5).N() = %d", gr.N())
	}
	rng := rand.New(rand.NewSource(1))
	if gp := pslocal.GnP(12, 1, rng); gp.M() != 66 {
		t.Errorf("GnP(12,1).M() = %d, want 66", gp.M())
	}
}

func TestFacadePortfolioOracle(t *testing.T) {
	a, err := pslocal.LookupOracle("greedy-mindeg", 1)
	if err != nil {
		t.Fatalf("LookupOracle: %v", err)
	}
	b, err := pslocal.LookupOracle("greedy-firstfit", 1)
	if err != nil {
		t.Fatalf("LookupOracle: %v", err)
	}
	p, err := pslocal.NewOraclePortfolio(a, b)
	if err != nil {
		t.Fatalf("NewOraclePortfolio: %v", err)
	}
	p.SetEngine(pslocal.ParallelEngine())
	g := pslocal.Cycle(9)
	set, err := p.Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := pslocal.VerifyIndependentSet(g, set); err != nil || len(set) != 4 {
		t.Errorf("portfolio on C9 = %v (%v), want a maximum IS of size 4", set, err)
	}
	named, err := pslocal.LookupOracle("portfolio:greedy-mindeg,greedy-firstfit", 1)
	if err != nil {
		t.Fatalf("LookupOracle portfolio: %v", err)
	}
	if _, ok := named.(*pslocal.OraclePortfolio); !ok {
		t.Errorf("registry portfolio has type %T", named)
	}
}

func TestFacadeHypergraphAndColourings(t *testing.T) {
	h, err := pslocal.NewHypergraph(4, [][]int32{{0, 1, 2}, {1, 2, 3}})
	if err != nil {
		t.Fatalf("NewHypergraph: %v", err)
	}
	if _, err := pslocal.NewHypergraph(2, [][]int32{{}}); err == nil {
		t.Error("empty edge accepted")
	}
	c := pslocal.Coloring{1, 2, 2, 1}
	if !pslocal.IsConflictFree(h, c) {
		t.Error("conflict-free colouring rejected")
	}
	mc := pslocal.Multicoloring{{1}, {}, {}, {2}}
	if !pslocal.IsConflictFreeMulti(h, mc) {
		t.Error("conflict-free multicolouring rejected")
	}
	if err := pslocal.VerifyConflictFreeMulti(h, mc); err != nil {
		t.Errorf("VerifyConflictFreeMulti: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	ih, err := pslocal.IntervalHypergraph(20, 10, 2, 6, rng)
	if err != nil {
		t.Fatalf("IntervalHypergraph: %v", err)
	}
	if !pslocal.IsConflictFree(ih, pslocal.DyadicIntervalColoring(20)) {
		t.Error("dyadic colouring not conflict-free on an interval hypergraph")
	}
}

func TestFacadeMaxISSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := pslocal.GnP(35, 0.15, rng)
	sets := make(map[string][]int32)
	for _, name := range []string{"exact", "greedy-mindeg", "clique-removal"} {
		res, err := pslocal.NewSolver(pslocal.WithOracle(name)).MaxIS(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := pslocal.VerifyIndependentSet(g, res.Set); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		sets[name] = res.Set
	}
	exact, greedy, ramsey := sets["exact"], sets["greedy-mindeg"], sets["clique-removal"]
	if len(exact) < len(greedy) || len(exact) < len(ramsey) {
		t.Errorf("exact %d smaller than a heuristic (greedy %d, ramsey %d)",
			len(exact), len(greedy), len(ramsey))
	}
}

func TestFacadeLoadgen(t *testing.T) {
	trace, err := pslocal.PlanLoad(pslocal.LoadSpec{
		Seed: 5, Requests: 12, Rate: 300, Arrival: pslocal.LoadArrivalGamma, Shape: 2,
		Classes: []pslocal.LoadClass{{
			Name: "maxis", Weight: 1, Endpoint: "maxis", Kind: "graph",
			Gen: "cycle", N: 12, Formats: []string{"edgelist"},
			Params: pslocal.LoadParams{Oracle: "greedy-mindeg"}, SLOMillis: 100,
		}},
	})
	if err != nil {
		t.Fatalf("PlanLoad: %v", err)
	}
	if len(trace.Records) != 12 {
		t.Fatalf("planned %d records", len(trace.Records))
	}
	var buf bytes.Buffer
	if err := pslocal.WriteLoadTrace(&buf, trace); err != nil {
		t.Fatalf("WriteLoadTrace: %v", err)
	}
	back, err := pslocal.ReadLoadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadLoadTrace: %v", err)
	}
	if len(back.Records) != 12 || back.Seed != 5 {
		t.Fatalf("round-trip lost the trace: %+v", back)
	}
	if _, err := pslocal.PlanLoad(pslocal.LoadSpec{}); !errors.Is(err, pslocal.ErrLoadSpec) {
		t.Fatalf("empty spec error = %v, want ErrLoadSpec", err)
	}
	if _, err := pslocal.ReadLoadTrace(strings.NewReader("junk\n")); !errors.Is(err, pslocal.ErrLoadTrace) {
		t.Fatalf("junk trace error = %v, want ErrLoadTrace", err)
	}
}

func TestFacadePhaseBoundAndOrders(t *testing.T) {
	if got := pslocal.PhaseBound(1, 1); got != 1 {
		t.Errorf("PhaseBound(1,1) = %d", got)
	}
	order := pslocal.IdentityOrder(4)
	for i, v := range order {
		if int(v) != i {
			t.Fatalf("IdentityOrder broken at %d", i)
		}
	}
}
