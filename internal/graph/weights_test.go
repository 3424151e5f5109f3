package graph

import (
	"errors"
	"testing"
)

func TestUnweightedAccessors(t *testing.T) {
	g := Path(4)
	if g.Weighted() {
		t.Error("plain graph reports Weighted")
	}
	if g.Weight(2) != 1 {
		t.Errorf("Weight = %d, want 1", g.Weight(2))
	}
	if g.Weights() != nil {
		t.Errorf("Weights = %v, want nil", g.Weights())
	}
	if g.TotalWeight() != int64(g.N()) {
		t.Errorf("TotalWeight = %d, want %d", g.TotalWeight(), g.N())
	}
	ws := g.AppendWeights(nil)
	if len(ws) != g.N() {
		t.Fatalf("AppendWeights length %d, want %d", len(ws), g.N())
	}
	for _, w := range ws {
		if w != 1 {
			t.Fatalf("AppendWeights = %v, want all ones", ws)
		}
	}
}

func TestBuilderSetWeight(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.SetWeight(2, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("graph with a non-unit weight reports unweighted")
	}
	if got := g.Weights(); got[0] != 1 || got[1] != 1 || got[2] != 7 {
		t.Errorf("Weights = %v, want [1 1 7]", got)
	}
	if g.TotalWeight() != 9 {
		t.Errorf("TotalWeight = %d, want 9", g.TotalWeight())
	}
}

func TestBuilderWeightErrors(t *testing.T) {
	cases := []struct {
		name string
		prep func(b *Builder)
		want error
	}{
		{"negative weight", func(b *Builder) { b.SetWeight(0, -4) }, ErrBadWeight},
		{"overflow weight", func(b *Builder) { b.SetWeight(0, MaxWeight+1) }, ErrBadWeight},
		{"vertex out of range", func(b *Builder) { b.SetWeight(9, 2) }, ErrNodeRange},
		{"negative vertex", func(b *Builder) { b.SetWeight(-1, 2) }, ErrNodeRange},
		{"short vector", func(b *Builder) { b.SetWeights([]int64{1, 2}) }, ErrWeightLength},
	}
	for _, tc := range cases {
		b := NewBuilder(3)
		tc.prep(b)
		if _, err := b.Build(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Build err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSetWeightsNormalizesUnitVector(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.SetWeights([]int64{1, 1, 1})
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.Weighted() {
		t.Error("all-ones weight vector not normalised to nil")
	}
	// A nil vector resets earlier weights.
	b = NewBuilder(2)
	b.SetWeight(0, 5)
	b.SetWeights(nil)
	g, err = b.Build()
	if err != nil {
		t.Fatalf("Build after reset: %v", err)
	}
	if g.Weighted() {
		t.Error("SetWeights(nil) did not reset weights")
	}
}

func TestWithWeights(t *testing.T) {
	g := Cycle(5)
	wg, err := WithWeights(g, []int64{5, 4, 3, 2, 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if !wg.Weighted() || wg.Weight(0) != 5 || wg.Weight(4) != 1 {
		t.Errorf("weights not attached: %v", wg.Weights())
	}
	if wg.N() != g.N() || wg.M() != g.M() {
		t.Error("WithWeights changed the topology")
	}
	// Stripping weights gives back an unweighted view.
	uw, err := WithWeights(wg, nil)
	if err != nil {
		t.Fatalf("WithWeights(nil): %v", err)
	}
	if uw.Weighted() {
		t.Error("WithWeights(nil) left the graph weighted")
	}
	if _, err := WithWeights(g, []int64{1, 2}); !errors.Is(err, ErrWeightLength) {
		t.Errorf("short vector err = %v, want ErrWeightLength", err)
	}
	if _, err := WithWeights(g, []int64{1, 2, 3, 4, -1}); !errors.Is(err, ErrBadWeight) {
		t.Errorf("negative weight err = %v, want ErrBadWeight", err)
	}
	// Zero weights are admissible (only negative and overflow are errors).
	if zg, err := WithWeights(g, []int64{0, 1, 1, 1, 1}); err != nil || !zg.Weighted() {
		t.Errorf("zero weight rejected: %v", err)
	}
}

func TestEqualDistinguishesWeights(t *testing.T) {
	g := Path(3)
	a, err := WithWeights(g, []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	b, err := WithWeights(g, []int64{1, 2, 4})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if Equal(g, a) || Equal(a, b) {
		t.Error("Equal ignores weight vectors")
	}
	c, err := WithWeights(g, []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if !Equal(a, c) {
		t.Error("Equal rejects identical weighted graphs")
	}
}

func TestInducedCarriesWeights(t *testing.T) {
	g, err := WithWeights(Path(5), []int64{10, 20, 30, 40, 50})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	sub, orig, err := Induced(g, []int32{1, 3, 4})
	if err != nil {
		t.Fatalf("Induced: %v", err)
	}
	if !sub.Weighted() {
		t.Fatal("induced subgraph of a weighted graph is unweighted")
	}
	for i, o := range orig {
		if sub.Weight(int32(i)) != g.Weight(o) {
			t.Errorf("sub vertex %d: weight %d, want %d", i, sub.Weight(int32(i)), g.Weight(o))
		}
	}
	// Unweighted input stays unweighted.
	usub, _, err := Induced(Path(5), []int32{1, 3})
	if err != nil {
		t.Fatalf("Induced: %v", err)
	}
	if usub.Weighted() {
		t.Error("induced subgraph of an unweighted graph carries weights")
	}
}

func TestComplementAndUnionWeights(t *testing.T) {
	g, err := WithWeights(Path(3), []int64{7, 8, 9})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	comp := Complement(g)
	if !comp.Weighted() || comp.Weight(1) != 8 {
		t.Errorf("Complement weights = %v, want [7 8 9]", comp.Weights())
	}
	u := Union(g, Path(2))
	if !u.Weighted() {
		t.Fatal("union with a weighted side is unweighted")
	}
	want := []int64{7, 8, 9, 1, 1}
	for i, w := range want {
		if u.Weight(int32(i)) != w {
			t.Errorf("union vertex %d: weight %d, want %d", i, u.Weight(int32(i)), w)
		}
	}
	uu := Union(Path(2), Path(2))
	if uu.Weighted() {
		t.Error("union of unweighted graphs carries weights")
	}
}
