package maxis

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
)

// testGrid returns the randomized instance grid shared by the portfolio
// equivalence tests.
func testGrid(t *testing.T) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	empty, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	lone, err := graph.NewBuilder(1).Build()
	if err != nil {
		t.Fatalf("single-node graph: %v", err)
	}
	gs := []*graph.Graph{
		empty,
		lone,
		graph.Cycle(9),
		graph.Grid(4, 5),
		graph.Complete(6),
	}
	for i := 0; i < 8; i++ {
		gs = append(gs, graph.GnP(10+i*7, 0.05+0.03*float64(i), rng))
	}
	return gs
}

func TestPortfolioSingleMemberBitIdentical(t *testing.T) {
	for _, name := range []string{"greedy-mindeg", "greedy-firstfit", "greedy-random", "clique-removal"} {
		lone, err := Lookup(name, 5)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		port, err := Lookup("portfolio:"+name, 5)
		if err != nil {
			t.Fatalf("lookup portfolio:%s: %v", name, err)
		}
		for gi, g := range testGrid(t) {
			want, err := lone.Solve(g)
			if err != nil {
				t.Fatalf("%s solve: %v", name, err)
			}
			got, err := port.Solve(g)
			if err != nil {
				t.Fatalf("portfolio:%s solve: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("graph %d: portfolio:%s = %v, member alone = %v", gi, name, got, want)
			}
		}
	}
}

// TestPortfolioAtLeastBestMember checks the defining guarantee: on every
// instance the portfolio's set is at least as large as every member's,
// for every worker count, and still independent.
func TestPortfolioAtLeastBestMember(t *testing.T) {
	names := []string{"greedy-firstfit", "greedy-mindeg", "greedy-random", "clique-removal"}
	for _, workers := range []int{0, 1, 2, -1} {
		// Fresh instances per worker count so randomized members see the
		// same rng stream in the member runs and the portfolio runs.
		members := make([]Oracle, len(names))
		solo := make([]Oracle, len(names))
		for i, n := range names {
			var err error
			if members[i], err = Lookup(n, 5+int64(i)); err != nil {
				t.Fatalf("lookup: %v", err)
			}
			if solo[i], err = Lookup(n, 5+int64(i)); err != nil {
				t.Fatalf("lookup: %v", err)
			}
		}
		p, err := NewPortfolio(members...)
		if err != nil {
			t.Fatalf("NewPortfolio: %v", err)
		}
		p.SetEngine(engine.Options{Workers: workers})
		for gi, g := range testGrid(t) {
			got, err := p.Solve(g)
			if err != nil {
				t.Fatalf("workers=%d graph %d: %v", workers, gi, err)
			}
			if !IsIndependentSet(g, got) {
				t.Fatalf("workers=%d graph %d: portfolio set %v not independent", workers, gi, got)
			}
			for i, s := range solo {
				set, err := s.Solve(g)
				if err != nil {
					t.Fatalf("member %s: %v", names[i], err)
				}
				if len(got) < len(set) {
					t.Errorf("workers=%d graph %d: portfolio |I|=%d < member %s |I|=%d",
						workers, gi, len(got), names[i], len(set))
				}
			}
		}
	}
}

func TestPortfolioDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func() Oracle {
		o, err := Lookup("portfolio:greedy-mindeg,greedy-firstfit,clique-removal", 3)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		return o
	}
	for gi, g := range testGrid(t) {
		var want []int32
		for _, workers := range []int{1, 2, 3, -1} {
			o := build()
			o.(*Portfolio).SetEngine(engine.Options{Workers: workers})
			got, err := o.Solve(g)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if workers == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("graph %d workers=%d: %v, serial gave %v", gi, workers, got, want)
			}
		}
	}
}

// TestPortfolioPackingMembersAcrossWidths races three members that each
// pack the dense instance into pooled scratch from their own goroutine:
// every width-4 race must equal the width-1 one, and -race must see no
// pack shared between members.
func TestPortfolioPackingMembersAcrossWidths(t *testing.T) {
	g := graph.GnP(160, 0.4, rand.New(rand.NewSource(29)))
	if !DenseEligible(g) {
		t.Fatal("G(160, 0.4) should clear the density cutoff")
	}
	race := func(workers int) []int32 {
		o, err := Lookup("portfolio:greedy-mindeg-bitset,greedy-firstfit,greedy-random", 3)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		o.(*Portfolio).SetEngine(engine.Options{Workers: workers})
		set, err := o.Solve(g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return set
	}
	want := race(1)
	for round := 0; round < 50; round++ {
		if got := race(4); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: width 4 gave %v, width 1 gave %v", round, got, want)
		}
	}
}

type failingOracle struct{ err error }

func (f failingOracle) Name() string                        { return "failing" }
func (f failingOracle) Solve(*graph.Graph) ([]int32, error) { return nil, f.err }

func TestPortfolioPropagatesMemberError(t *testing.T) {
	boom := errors.New("boom")
	p, err := NewPortfolio(MinDegreeOracle{}, failingOracle{err: boom})
	if err != nil {
		t.Fatalf("NewPortfolio: %v", err)
	}
	for _, workers := range []int{1, 2} {
		p.SetEngine(engine.Options{Workers: workers})
		if _, err := p.Solve(graph.Cycle(5)); !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestPortfolioCancellation(t *testing.T) {
	p, err := NewPortfolio(MinDegreeOracle{}, FirstFitOracle{})
	if err != nil {
		t.Fatalf("NewPortfolio: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.SetEngine(engine.Options{Workers: 2, Ctx: ctx})
	if _, err := p.Solve(graph.Cycle(5)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestPortfolioName(t *testing.T) {
	p, err := NewPortfolio(MinDegreeOracle{}, FirstFitOracle{})
	if err != nil {
		t.Fatalf("NewPortfolio: %v", err)
	}
	if got, want := p.Name(), "portfolio:greedy-mindeg,greedy-firstfit"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
}

func TestNewPortfolioValidation(t *testing.T) {
	if _, err := NewPortfolio(); err == nil {
		t.Error("empty portfolio accepted")
	}
	if _, err := NewPortfolio(MinDegreeOracle{}, nil); err == nil {
		t.Error("nil member accepted")
	}
}
