package core

// engine_test.go holds the equivalence tests of the execution options:
// G_k construction must produce the reference CSR for every worker count,
// and the batched first-fit scratch must reproduce the plain scan — over
// randomized PlantedCF instances with fixed seeds.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pslocal/internal/engine"
	"pslocal/internal/hypergraph"
)

// requireSameGraph asserts the two graphs have identical CSR content via
// the exported surface (same node count, same adjacency everywhere).
func requireSameGraph(t *testing.T, got, want interface {
	N() int
	M() int
	AppendNeighbors([]int32, int32) []int32
}) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("graph shape (n=%d,m=%d), want (n=%d,m=%d)", got.N(), got.M(), want.N(), want.M())
	}
	var ga, wa []int32
	for v := int32(0); int(v) < want.N(); v++ {
		ga = got.AppendNeighbors(ga[:0], v)
		wa = want.AppendNeighbors(wa[:0], v)
		if len(ga) != len(wa) {
			t.Fatalf("node %d: degree %d, want %d", v, len(ga), len(wa))
		}
		for i := range wa {
			if ga[i] != wa[i] {
				t.Fatalf("node %d: neighbour[%d] = %d, want %d", v, i, ga[i], wa[i])
			}
		}
	}
}

func TestBuildOptsEquivalentToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	grids := [][3]int{{20, 8, 2}, {35, 14, 3}, {60, 24, 3}, {25, 30, 2}}
	for _, grid := range grids {
		n, m, k := grid[0], grid[1], grid[2]
		h, _, err := hypergraph.PlantedCF(n, m, k, 3, 5, rng)
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		ix, err := NewIndex(h, k)
		if err != nil {
			t.Fatalf("index: %v", err)
		}
		want := referenceBuild(t, ix)
		for _, workers := range []int{1, 2, 3, 5, 8} {
			got, err := BuildOpts(ix, engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			requireSameGraph(t, got, want)
		}
	}
}

func TestBuildOptsEdgeCases(t *testing.T) {
	// No edges, a single edge, singleton edges, duplicate edges: the rows
	// must agree with the reference on degenerate shapes too.
	cases := []struct {
		n     int
		edges [][]int32
	}{
		{2, nil},
		{1, [][]int32{{0}}},
		{3, [][]int32{{0, 1, 2}}},
		{4, [][]int32{{0, 1}, {0, 1}, {2, 3}}},
		{5, [][]int32{{0}, {0}, {0, 1, 2, 3, 4}}},
	}
	for i, c := range cases {
		h := hypergraph.MustNew(c.n, c.edges)
		for k := 1; k <= 3; k++ {
			ix, err := NewIndex(h, k)
			if err != nil {
				t.Fatalf("case %d k=%d: %v", i, k, err)
			}
			got, err := BuildOpts(ix, engine.Options{Workers: 4})
			if err != nil {
				t.Fatalf("case %d k=%d: %v", i, k, err)
			}
			requireSameGraph(t, got, referenceBuild(t, ix))
		}
	}
}

func TestBuildOptsCancelledContext(t *testing.T) {
	h := hypergraph.MustNew(3, [][]int32{{0, 1, 2}})
	ix, err := NewIndex(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildOpts(ix, engine.Options{Workers: 2, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestFirstFitScratchEquivalentToScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	var scratch FirstFitScratch // deliberately reused across all instances
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(40)
		m := 4 + rng.Intn(20)
		k := 2 + rng.Intn(3)
		h, _, err := hypergraph.PlantedCF(n, m, k, 3, 5, rng)
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		ix, err := NewIndex(h, k)
		if err != nil {
			t.Fatalf("index: %v", err)
		}
		want := FirstFitTriples(ix)
		got := scratch.FirstFit(ix)
		if len(got) != len(want) {
			t.Fatalf("trial %d: |I| = %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: triple %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestReduceEngineParityAndCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h, _, err := hypergraph.PlantedCF(30, 18, 2, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeImplicitFirstFit, ModeExactHinted} {
		serial, err := Reduce(nil, h, Options{K: 2, Mode: mode})
		if err != nil {
			t.Fatalf("mode %d serial: %v", mode, err)
		}
		parallel, err := Reduce(nil, h, Options{K: 2, Mode: mode, Engine: engine.Options{Workers: 4}})
		if err != nil {
			t.Fatalf("mode %d parallel: %v", mode, err)
		}
		if len(serial.Phases) != len(parallel.Phases) || serial.TotalColors != parallel.TotalColors {
			t.Fatalf("mode %d: parallel run diverged (%d phases/%d colours vs %d/%d)",
				mode, len(parallel.Phases), parallel.TotalColors, len(serial.Phases), serial.TotalColors)
		}
		for i := range serial.Phases {
			if serial.Phases[i] != parallel.Phases[i] {
				t.Fatalf("mode %d: phase %d stats diverged: %+v vs %+v",
					mode, i, parallel.Phases[i], serial.Phases[i])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Reduce(nil, h, Options{K: 2, Mode: ModeImplicitFirstFit, Engine: engine.Options{Ctx: ctx}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Reduce err = %v, want context.Canceled", err)
	}
}
