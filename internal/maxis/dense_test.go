package maxis

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pslocal/internal/graph"
)

// refGreedyMinDegreeDeterministic is the list-based twin of the dense
// min-degree kernel: it selects the smallest (residual degree, id) pair by
// a plain scan, the same tie-break greedyMinDegreeDense uses, so the two
// must match element for element on every graph.
func refGreedyMinDegreeDeterministic(g *graph.Graph) []int32 {
	n := g.N()
	removed := make([]bool, n)
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
	}
	var out []int32
	for {
		best, bestDeg := int32(-1), int32(0)
		for v := int32(0); int(v) < n; v++ {
			if !removed[v] && (best < 0 || deg[v] < bestDeg) {
				best, bestDeg = v, deg[v]
			}
		}
		if best < 0 {
			break
		}
		out = append(out, best)
		drop := []int32{best}
		removed[best] = true
		g.ForEachNeighbor(best, func(u int32) bool {
			if !removed[u] {
				removed[u] = true
				drop = append(drop, u)
			}
			return true
		})
		for _, u := range drop {
			g.ForEachNeighbor(u, func(w int32) bool {
				if !removed[w] {
					deg[w]--
				}
				return true
			})
		}
	}
	slices.Sort(out)
	return out
}

func equalSets(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGreedyOrderDenseMatchesList(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		g := graph.GnP(n, rng.Float64(), rng)
		order := make([]int32, n)
		for i, p := range rng.Perm(n) {
			order[i] = int32(p)
		}
		dense := greedyOrderDense(packDense(g), order)
		list := greedyOrderList(g, order)
		return equalSets(dense, list) && IsIndependentSet(g, dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMinDegreeDenseMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		g := graph.GnP(n, rng.Float64(), rng)
		dense := greedyMinDegreeDense(packDense(g))
		ref := refGreedyMinDegreeDeterministic(g)
		return equalSets(dense, ref) && IsIndependentSet(g, dense)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMinDegreeBitsetMeetsListOnFallback(t *testing.T) {
	// Below the density cutoff the bitset oracle IS GreedyMinDegree; the
	// outputs must be bit-identical.
	rng := rand.New(rand.NewSource(11))
	g := graph.GnP(400, 0.005, rng)
	if DenseEligible(g) {
		t.Fatalf("G(400, 0.005) unexpectedly cleared the density cutoff")
	}
	if !equalSets(GreedyMinDegreeBitset(g), GreedyMinDegree(g)) {
		t.Error("sparse fallback diverged from GreedyMinDegree")
	}
}

// TestGreedyMinDegreeBitsetReusesPack holds the pooled-pack line: once
// the pool is warm, a dense solve allocates its result and no pack.
func TestGreedyMinDegreeBitsetReusesPack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomises sync.Pool reuse")
	}
	g := graph.GnP(256, 0.3, rand.New(rand.NewSource(5)))
	if !DenseEligible(g) {
		t.Fatal("G(256, 0.3) should clear the density cutoff")
	}
	const packBytes = 256 * 4 * 8   // n rows of ⌈n/64⌉ words
	sink = GreedyMinDegreeBitset(g) // warm the pools
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink = GreedyMinDegreeBitset(g)
	}
	runtime.ReadMemStats(&after)
	if perSolve := (after.TotalAlloc - before.TotalAlloc) / runs; perSolve >= packBytes {
		t.Errorf("%d bytes allocated per solve, want below one pack (%d)", perSolve, packBytes)
	}
}

func TestDenseEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dense := graph.GnP(128, 0.5, rng)
	if !DenseEligible(dense) {
		t.Error("G(128, 0.5) should clear the density cutoff")
	}
	sparse := graph.GnP(512, 0.002, rng)
	if DenseEligible(sparse) {
		t.Error("G(512, 0.002) should fall below the density cutoff")
	}
	if DenseEligible(graph.GnP(1, 0, rng)) {
		t.Error("a single vertex should never pack")
	}
}

// TestExactWithDenseOption checks the exact solver, whose rows are always
// a pooled pack, against brute force from sparse to dense G(n, p).
func TestExactWithDenseOption(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(13)
		g := graph.GnP(n, 0.1+0.7*rng.Float64(), rng)
		set, err := ExactOpts(g, ExactOptions{})
		if err != nil {
			return false
		}
		return IsIndependentSet(g, set) && len(set) == bruteForceAlpha(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
