package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pslocal/internal/cfcolor"
	"pslocal/internal/core"
	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
)

func TestIndependentSet(t *testing.T) {
	g := graph.Path(4)
	tests := []struct {
		name  string
		nodes []int32
		fail  bool
	}{
		{"empty", nil, false},
		{"valid", []int32{0, 2}, false},
		{"adjacent", []int32{1, 2}, true},
		{"repeat", []int32{0, 0}, true},
		{"range", []int32{7}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := IndependentSet(g, tt.nodes)
			if (err != nil) != tt.fail {
				t.Errorf("IndependentSet(%v) = %v, fail=%v", tt.nodes, err, tt.fail)
			}
			if err != nil && !errors.Is(err, ErrNotIndependent) {
				t.Errorf("error %v should wrap ErrNotIndependent", err)
			}
		})
	}
}

// independentSetRef is the edge walk IndependentSet replaced: membership
// in a map, then every edge of g in ascending order.
func independentSetRef(g *graph.Graph, nodes []int32) error {
	seen := make(map[int32]bool, len(nodes))
	for _, v := range nodes {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("%w: node %d out of range", ErrNotIndependent, v)
		}
		if seen[v] {
			return fmt.Errorf("%w: node %d repeated", ErrNotIndependent, v)
		}
		seen[v] = true
	}
	var err error
	g.ForEachEdge(func(u, v int32) bool {
		if seen[u] && seen[v] {
			err = fmt.Errorf("%w: edge {%d,%d} inside the set", ErrNotIndependent, u, v)
			return false
		}
		return true
	})
	return err
}

// TestIndependentSetMatchesEdgeWalk pins the reported violation: on random
// graphs and unsorted node lists, some out of range or repeated, some
// independent, IndependentSet gives the edge walk's verdict and text,
// and maxis.IsIndependentSet its verdict.
func TestIndependentSetMatchesEdgeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(30)
		g := graph.GnP(n, rng.Float64()*0.4, rng)
		var nodes []int32
		if trial%2 == 0 {
			// A greedy independent set, shuffled, with maybe one
			// vertex more.
			taken := make([]bool, n)
			for _, v := range rng.Perm(n) {
				free := true
				g.ForEachNeighbor(int32(v), func(u int32) bool {
					free = !taken[u]
					return free
				})
				if free {
					taken[v] = true
					nodes = append(nodes, int32(v))
				}
			}
			if rng.Intn(2) == 0 {
				nodes = append(nodes, int32(rng.Intn(n)))
			}
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		} else {
			for range rng.Intn(n + 1) {
				nodes = append(nodes, int32(rng.Intn(n+2))-1)
			}
		}
		got, want := IndependentSet(g, nodes), independentSetRef(g, nodes)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("IndependentSet(%v, %v) = %v, edge walk %v", g, nodes, got, want)
		}
		if ok := maxis.IsIndependentSet(g, nodes); ok != (want == nil) {
			t.Fatalf("maxis.IsIndependentSet(%v, %v) = %t, edge walk %v", g, nodes, ok, want)
		}
	}
}

func TestMaximalIndependentSet(t *testing.T) {
	g := graph.Path(5)
	if err := MaximalIndependentSet(g, []int32{0, 2, 4}); err != nil {
		t.Errorf("maximum set rejected: %v", err)
	}
	err := MaximalIndependentSet(g, []int32{0})
	if !errors.Is(err, ErrNotMaximal) {
		t.Errorf("error = %v, want ErrNotMaximal", err)
	}
	if err := MaximalIndependentSet(g, []int32{0, 1}); !errors.Is(err, ErrNotIndependent) {
		t.Errorf("error = %v, want ErrNotIndependent", err)
	}
}

func TestProperColoring(t *testing.T) {
	g := graph.Cycle(4)
	if err := ProperColoring(g, []int32{1, 2, 1, 2}); err != nil {
		t.Errorf("proper colouring rejected: %v", err)
	}
	if err := ProperColoring(g, []int32{1, 1, 2, 2}); !errors.Is(err, ErrNotProper) {
		t.Errorf("monochromatic edge: %v", err)
	}
	if err := ProperColoring(g, []int32{1, 2, 0, 2}); !errors.Is(err, ErrNotProper) {
		t.Errorf("uncoloured node: %v", err)
	}
	if err := ProperColoring(g, []int32{1, 2}); !errors.Is(err, ErrNotProper) {
		t.Errorf("short colouring: %v", err)
	}
}

func TestConflictFreeCheckers(t *testing.T) {
	h := hypergraph.MustNew(3, [][]int32{{0, 1, 2}})
	if err := ConflictFree(h, cfcolor.Coloring{1, 2, 2}); err != nil {
		t.Errorf("happy colouring rejected: %v", err)
	}
	if err := ConflictFree(h, cfcolor.Coloring{1, 1, 1}); !errors.Is(err, ErrNotConflictFree) {
		t.Errorf("unhappy colouring: %v", err)
	}
	mc := cfcolor.NewMulticoloring(3)
	mc.Add(0, 1)
	if err := ConflictFreeMulti(h, mc); err != nil {
		t.Errorf("happy multicolouring rejected: %v", err)
	}
	if err := ConflictFreeMulti(h, cfcolor.NewMulticoloring(3)); !errors.Is(err, ErrNotConflictFree) {
		t.Errorf("empty multicolouring: %v", err)
	}
}

func TestReductionResult(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, _, err := hypergraph.PlantedCF(15, 8, 3, 2, 4, rng)
	if err != nil {
		t.Fatalf("PlantedCF error: %v", err)
	}
	res, err := core.Reduce(nil, h, core.Options{K: 3, Mode: core.ModeImplicitFirstFit})
	if err != nil {
		t.Fatalf("Reduce error: %v", err)
	}
	if err := ReductionResult(h, res); err != nil {
		t.Errorf("genuine reduction result rejected: %v", err)
	}
	// Corrupt the bookkeeping.
	bad := *res
	bad.Phases = append([]core.PhaseStat(nil), res.Phases...)
	bad.Phases[0].HappyRemoved++
	if err := ReductionResult(h, &bad); !errors.Is(err, ErrInconsistent) {
		t.Errorf("corrupted phases accepted: %v", err)
	}
	bad2 := *res
	bad2.TotalColors++
	if err := ReductionResult(h, &bad2); !errors.Is(err, ErrInconsistent) {
		t.Errorf("corrupted colour budget accepted: %v", err)
	}
}

// TestReductionBookkeepingSplit pins the split of ReductionResult: every
// bookkeeping fault fails ReductionBookkeeping with the error
// ReductionResult reports, and a conflict fault, which only the
// hyperedge walk sees, fails ReductionResult alone.
func TestReductionBookkeepingSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, _, err := hypergraph.PlantedCF(15, 8, 3, 2, 4, rng)
	if err != nil {
		t.Fatalf("PlantedCF error: %v", err)
	}
	res, err := core.Reduce(nil, h, core.Options{K: 3, Mode: core.ModeImplicitFirstFit})
	if err != nil {
		t.Fatalf("Reduce error: %v", err)
	}
	if err := ReductionBookkeeping(h, res); err != nil {
		t.Errorf("genuine reduction result rejected: %v", err)
	}
	withPhases := func(edit func([]core.PhaseStat)) *core.Result {
		bad := *res
		bad.Phases = append([]core.PhaseStat(nil), res.Phases...)
		edit(bad.Phases)
		return &bad
	}
	budget := *res
	budget.TotalColors++
	for name, bad := range map[string]*core.Result{
		"removed count": withPhases(func(ps []core.PhaseStat) { ps[0].HappyRemoved++ }),
		"colour budget": &budget,
		"edges before":  withPhases(func(ps []core.PhaseStat) { ps[0].EdgesBefore++ }),
		"lemma 2.1(b)":  withPhases(func(ps []core.PhaseStat) { ps[0].ISSize = ps[0].HappyRemoved + 1 }),
		"zero removed":  withPhases(func(ps []core.PhaseStat) { ps[0].HappyRemoved = 0 }),
	} {
		whole, part := ReductionResult(h, bad), ReductionBookkeeping(h, bad)
		if !errors.Is(part, ErrInconsistent) {
			t.Errorf("%s: ReductionBookkeeping = %v, want ErrInconsistent", name, part)
			continue
		}
		if whole == nil || whole.Error() != part.Error() {
			t.Errorf("%s: ReductionResult = %v, ReductionBookkeeping = %v, want the same error", name, whole, part)
		}
	}
	conflict := *res
	conflict.Multicoloring = cfcolor.NewMulticoloring(h.N())
	if err := ReductionResult(h, &conflict); !errors.Is(err, ErrNotConflictFree) {
		t.Errorf("uncoloured result: ReductionResult = %v, want ErrNotConflictFree", err)
	}
	if err := ReductionBookkeeping(h, &conflict); err != nil {
		t.Errorf("uncoloured result: ReductionBookkeeping = %v, want nil", err)
	}
}

func TestIndependentTriples(t *testing.T) {
	h := hypergraph.MustNew(3, [][]int32{{0, 1}, {1, 2}})
	ix, err := core.NewIndex(h, 2)
	if err != nil {
		t.Fatalf("NewIndex error: %v", err)
	}
	if err := IndependentTriples(ix, []core.Triple{{Edge: 0, Vertex: 0, Color: 1}}); err != nil {
		t.Errorf("singleton rejected: %v", err)
	}
	err = IndependentTriples(ix, []core.Triple{
		{Edge: 0, Vertex: 0, Color: 1},
		{Edge: 0, Vertex: 1, Color: 1},
	})
	if !errors.Is(err, ErrNotIndependent) {
		t.Errorf("same-edge pair: %v", err)
	}
}

func TestRatioDelegates(t *testing.T) {
	r, err := Ratio(9, 3)
	if err != nil || r != 3 {
		t.Errorf("Ratio = %v, %v", r, err)
	}
	if _, err := Ratio(1, 0); err == nil {
		t.Error("Ratio(1,0) should error")
	}
}

func TestReport(t *testing.T) {
	var r Report
	r.Add("first", nil)
	if !r.OK() || r.Err() != nil {
		t.Error("all-pass report should be OK")
	}
	r.Add("second", errors.New("boom"))
	r.Add("third", nil)
	if r.OK() {
		t.Error("failed check not reflected in OK()")
	}
	if err := r.Err(); err == nil {
		t.Error("Err() should aggregate failures")
	}
	out := r.String()
	if want := "PASS first"; !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
	if want := "FAIL second"; !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
}
