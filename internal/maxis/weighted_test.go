package maxis

import (
	"errors"
	"math/rand"
	"testing"

	"pslocal/internal/graph"
)

// weightedGrid returns random weighted graphs (plus weighted corner
// cases) for the oracle sweeps. Weights are skewed so that weight order
// and degree order disagree on most instances.
func weightedGrid(t *testing.T) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	var gs []*graph.Graph
	add := func(g *graph.Graph) {
		ws := make([]int64, g.N())
		for i := range ws {
			ws[i] = 1 + rng.Int63n(1000)*rng.Int63n(2) // half the vertices stay at weight 1
		}
		wg, err := graph.WithWeights(g, ws)
		if err != nil {
			t.Fatalf("WithWeights: %v", err)
		}
		gs = append(gs, wg)
	}
	add(graph.Cycle(9))
	add(graph.Grid(4, 5))
	add(graph.Complete(6))
	for i := 0; i < 8; i++ {
		add(graph.GnP(10+i*6, 0.05+0.04*float64(i), rng))
	}
	return gs
}

// bruteForceWeightedAlpha enumerates all subsets; usable for n <= ~20.
func bruteForceWeightedAlpha(g *graph.Graph) int64 {
	n := g.N()
	adjMask := make([]uint32, n)
	for v := 0; v < n; v++ {
		g.ForEachNeighbor(int32(v), func(u int32) bool {
			adjMask[v] |= 1 << uint(u)
			return true
		})
	}
	best := int64(0)
	for mask := uint32(0); mask < 1<<uint(n); mask++ {
		var w int64
		ok := true
		for v := 0; v < n && ok; v++ {
			if mask&(1<<uint(v)) == 0 {
				continue
			}
			if adjMask[v]&mask != 0 {
				ok = false
				break
			}
			w += g.Weight(int32(v))
		}
		if ok && w > best {
			best = w
		}
	}
	return best
}

func TestSetWeight(t *testing.T) {
	g := graph.Path(4)
	if got := SetWeight(g, []int32{0, 2}); got != 2 {
		t.Errorf("unweighted SetWeight = %d, want 2 (cardinality)", got)
	}
	wg, err := graph.WithWeights(g, []int64{10, 1, 7, 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if got := SetWeight(wg, []int32{0, 2}); got != 17 {
		t.Errorf("weighted SetWeight = %d, want 17", got)
	}
	if got := SetWeight(wg, nil); got != 0 {
		t.Errorf("empty SetWeight = %d, want 0", got)
	}
}

func TestVerifyWeighted(t *testing.T) {
	wg, err := graph.WithWeights(graph.Path(4), []int64{10, 1, 7, 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if err := VerifyWeighted(wg, []int32{0, 2}, 17); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := VerifyWeighted(wg, []int32{0, 2}, 16); err == nil {
		t.Error("wrong reported weight accepted")
	}
	if err := VerifyWeighted(wg, []int32{0, 1}, 11); err == nil {
		t.Error("dependent set accepted")
	}
}

// TestGreedyWeightedPrefersHeavyVertices pins the objective switch: on a
// star, cardinality greedy takes the leaves, but with a heavy centre the
// weighted greedy must take the centre alone.
func TestGreedyWeightedPrefersHeavyVertices(t *testing.T) {
	b := graph.NewBuilder(5)
	for leaf := int32(1); leaf < 5; leaf++ {
		b.AddEdge(0, leaf)
	}
	star := b.MustBuild()
	if got := GreedyWeighted(star); len(got) != 4 {
		t.Errorf("unit-weight star greedy took %v, want the 4 leaves", got)
	}
	heavy, err := graph.WithWeights(star, []int64{100, 1, 1, 1, 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if got := GreedyWeighted(heavy); len(got) != 1 || got[0] != 0 {
		t.Errorf("heavy-centre star greedy took %v, want [0]", got)
	}
}

// TestExactWeightedMatchesBruteForce checks the weighted branch-and-bound
// (all three weight-sum bounds, the gated degree-1 rule, the skipped
// cycle shortcut) against subset enumeration.
func TestExactWeightedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(15) // up to 18
		g := graph.GnP(n, 0.1+0.5*rng.Float64(), rng)
		ws := make([]int64, n)
		for i := range ws {
			ws[i] = 1 + rng.Int63n(50)
		}
		wg, err := graph.WithWeights(g, ws)
		if err != nil {
			t.Fatalf("WithWeights: %v", err)
		}
		set, err := Exact(wg)
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		got := SetWeight(wg, set)
		if err := VerifyWeighted(wg, set, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := bruteForceWeightedAlpha(wg); got != want {
			t.Errorf("trial %d (n=%d): exact weight %d, want %d", trial, n, got, want)
		}
	}
}

// TestExactWeightedCycles covers the weighted mode on pure cycles, where
// the unweighted solver would take the ⌊n/2⌋ shortcut that is unsound
// under weights: on C4 with one heavy pair the optimum is the pair.
func TestExactWeightedCycles(t *testing.T) {
	for n := 3; n <= 9; n++ {
		g := graph.Cycle(n)
		ws := make([]int64, n)
		for i := range ws {
			ws[i] = int64(1 + (i*7)%5)
		}
		wg, err := graph.WithWeights(g, ws)
		if err != nil {
			t.Fatalf("WithWeights: %v", err)
		}
		set, err := Exact(wg)
		if err != nil {
			t.Fatalf("Exact(C%d): %v", n, err)
		}
		got := SetWeight(wg, set)
		if err := VerifyWeighted(wg, set, got); err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
		if want := bruteForceWeightedAlpha(wg); got != want {
			t.Errorf("C%d: exact weight %d, want %d", n, got, want)
		}
	}
}

// TestExactWeightedHint exercises the weighted clique-hint bound through
// ExactOpts on conflict-graph-shaped instances (a clique partition).
func TestExactWeightedHint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{3, 4, 2, 5}
	g := graph.CliquePartitionGraph(sizes, 0.2, rng)
	ws := make([]int64, g.N())
	for i := range ws {
		ws[i] = 1 + rng.Int63n(30)
	}
	wg, err := graph.WithWeights(g, ws)
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	hint := make([]int32, 0, g.N()) // per-node clique id
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			hint = append(hint, int32(c))
		}
	}
	set, err := ExactOpts(wg, ExactOptions{CliqueHint: hint})
	if err != nil {
		t.Fatalf("ExactOpts: %v", err)
	}
	got := SetWeight(wg, set)
	if err := VerifyWeighted(wg, set, got); err != nil {
		t.Fatal(err)
	}
	if want := bruteForceWeightedAlpha(wg); got != want {
		t.Errorf("hinted exact weight %d, want %d", got, want)
	}
}

// TestRegistryOraclesWeighted sweeps every registered oracle over random
// weighted graphs: outputs must verify as weighted independent sets, and
// bipartite-exact must decline weighted instances with ErrInapplicable.
func TestRegistryOraclesWeighted(t *testing.T) {
	gs := weightedGrid(t)
	for _, name := range Names() {
		o, err := Lookup(name, 3)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		for i, g := range gs {
			set, err := o.Solve(g)
			if name == "bipartite-exact" && g.Weighted() {
				if !errors.Is(err, ErrInapplicable) {
					t.Errorf("%s on weighted graph %d: err = %v, want ErrInapplicable", name, i, err)
				}
				continue
			}
			if err != nil {
				if errors.Is(err, ErrInapplicable) {
					continue // structural inapplicability (e.g. odd cycles) is fine
				}
				t.Errorf("%s graph %d: %v", name, i, err)
				continue
			}
			if err := VerifyWeighted(g, set, SetWeight(g, set)); err != nil {
				t.Errorf("%s graph %d: %v", name, i, err)
			}
		}
	}
}

// TestBipartiteExactWeightedInapplicable pins the sentinel chain: the
// weighted refusal must satisfy errors.Is for both sentinels.
func TestBipartiteExactWeightedInapplicable(t *testing.T) {
	wg, err := graph.WithWeights(graph.Path(4), []int64{2, 1, 1, 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	_, err = BipartiteExact(wg)
	if !errors.Is(err, ErrWeightedInstance) || !errors.Is(err, ErrInapplicable) {
		t.Errorf("BipartiteExact(weighted) err = %v, want ErrWeightedInstance wrapping ErrInapplicable", err)
	}
}

// TestUnitWeightsNormalizeToUnweighted pins the contract that weights are
// part of the instance, not a mode: an explicit all-ones vector is the
// same instance as no weights at all, so every oracle is bit-identical on
// the two spellings.
func TestUnitWeightsNormalizeToUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		g := graph.GnP(20+trial*10, 0.1, rng)
		unit, err := graph.WithWeights(g, unitWeightVector(g.N()))
		if err != nil {
			t.Fatalf("WithWeights: %v", err)
		}
		if unit.Weighted() {
			t.Fatal("all-ones weight vector left the graph weighted")
		}
		for _, name := range Names() {
			a, errA := mustLookup(t, name).Solve(g)
			b, errB := mustLookup(t, name).Solve(unit)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: error mismatch: %v vs %v", name, errA, errB)
			}
			if !equalSets(a, b) {
				t.Errorf("%s: unit-weight instance diverged: %v vs %v", name, a, b)
			}
		}
	}
}

func unitWeightVector(n int) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

func mustLookup(t *testing.T, name string) Oracle {
	t.Helper()
	o, err := Lookup(name, 7)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	return o
}

// TestPortfolioReturnsMaxWeightMember builds a portfolio whose members
// return sets of different weights and checks the heaviest wins even when
// a lighter set has more vertices.
func TestPortfolioReturnsMaxWeightMember(t *testing.T) {
	b := graph.NewBuilder(5)
	for leaf := int32(1); leaf < 5; leaf++ {
		b.AddEdge(0, leaf)
	}
	star := b.MustBuild()
	wg, err := graph.WithWeights(star, []int64{100, 1, 1, 1, 1})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	centre := fixedOracle{name: "centre", set: []int32{0}}
	leaves := fixedOracle{name: "leaves", set: []int32{1, 2, 3, 4}}
	p, err := NewPortfolio(leaves, centre)
	if err != nil {
		t.Fatalf("NewPortfolio: %v", err)
	}
	set, err := p.Solve(wg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(set) != 1 || set[0] != 0 {
		t.Errorf("portfolio picked %v, want the weight-100 centre [0]", set)
	}
	// On the unweighted twin the same race is decided by cardinality.
	set, err = p.Solve(star)
	if err != nil {
		t.Fatalf("Solve(unweighted): %v", err)
	}
	if len(set) != 4 {
		t.Errorf("unweighted portfolio picked %v, want the 4 leaves", set)
	}
}

// TestPortfolioTieBreakLowestIndex pins the documented tie-break: on an
// equal-weight (here equal-size) race the lowest-index member's set wins,
// keeping portfolios deterministic across worker counts.
func TestPortfolioTieBreakLowestIndex(t *testing.T) {
	g := graph.Path(4) // {0,2}, {0,3} and {1,3} all have size 2
	first := fixedOracle{name: "first", set: []int32{0, 2}}
	second := fixedOracle{name: "second", set: []int32{1, 3}}
	p, err := NewPortfolio(first, second)
	if err != nil {
		t.Fatalf("NewPortfolio: %v", err)
	}
	for trial := 0; trial < 20; trial++ {
		set, err := p.Solve(g)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if !equalSets(set, []int32{0, 2}) {
			t.Fatalf("trial %d: tie went to %v, want member 0's {0,2}", trial, set)
		}
	}
	// Same race on a weighted graph with equal set weights.
	wg, err := graph.WithWeights(g, []int64{3, 2, 4, 5})
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	if SetWeight(wg, []int32{0, 2}) != SetWeight(wg, []int32{1, 3}) {
		t.Fatal("test setup: weights are not tied")
	}
	for trial := 0; trial < 20; trial++ {
		set, err := p.Solve(wg)
		if err != nil {
			t.Fatalf("Solve(weighted): %v", err)
		}
		if !equalSets(set, []int32{0, 2}) {
			t.Fatalf("weighted trial %d: tie went to %v, want member 0's {0,2}", trial, set)
		}
	}
}

// fixedOracle returns a canned set regardless of the input graph.
type fixedOracle struct {
	name string
	set  []int32
}

func (f fixedOracle) Name() string { return f.name }
func (f fixedOracle) Solve(*graph.Graph) ([]int32, error) {
	out := make([]int32, len(f.set))
	copy(out, f.set)
	return out, nil
}

// TestCliqueRemovalWeighted checks the Ramsey-based oracle keeps a valid
// set and never returns a lighter set than its best recursion level.
func TestCliqueRemovalWeighted(t *testing.T) {
	for i, g := range weightedGrid(t) {
		set := CliqueRemoval(g)
		if err := VerifyWeighted(g, set, SetWeight(g, set)); err != nil {
			t.Errorf("graph %d: %v", i, err)
		}
	}
}

// TestGreedyWeightedDenseMatchesList checks the bitset kernel path gives
// the same answer as the list path on dense weighted graphs (same static
// order, different scan kernels).
func TestGreedyWeightedDenseMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := graph.GnP(40, 0.6, rng)
		ws := make([]int64, g.N())
		for i := range ws {
			ws[i] = 1 + rng.Int63n(100)
		}
		wg, err := graph.WithWeights(g, ws)
		if err != nil {
			t.Fatalf("WithWeights: %v", err)
		}
		if !DenseEligible(wg) {
			t.Skip("instance below the density cutoff")
		}
		viaDense := GreedyWeighted(wg)
		order := weightedRatioOrder(wg, nil)
		viaList, err := GreedyOrder(wg, order)
		if err != nil {
			t.Fatalf("GreedyOrder: %v", err)
		}
		if !equalSets(viaDense, viaList) {
			t.Errorf("trial %d: dense %v != list %v", trial, viaDense, viaList)
		}
	}
}
