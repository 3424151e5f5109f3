package maxis

// bench_kernels_test.go measures the word-parallel bitset kernels against
// their adjacency-list counterparts on a dense conflict-like graph — the
// regime the density cutoff routes to the kernels. scripts/bench.sh
// records BenchmarkOracleKernels into BENCH_gk.json; the ISSUE 6
// acceptance bar is ≥2x for bitset over list on this input.

import (
	"math/rand"
	"testing"

	"pslocal/internal/graph"
)

// benchDenseGraph returns the shared dense benchmark instance: G(n, p)
// far above the density cutoff, the shape of the per-edge-clique conflict
// graphs G_k the reduction produces on dense hypergraphs.
func benchDenseGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	g := graph.GnP(2048, 0.5, rng)
	if !DenseEligible(g) {
		tb.Fatalf("benchmark graph fell below the density cutoff")
	}
	return g
}

func BenchmarkOracleKernels(b *testing.B) {
	g := benchDenseGraph(b)
	d := packDense(g)
	order := make([]int32, g.N())
	for i := range order {
		order[i] = int32(i)
	}

	b.Run("mindeg/list", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = GreedyMinDegree(g)
		}
	})
	b.Run("mindeg/bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = greedyMinDegreeDense(d)
		}
	})
	b.Run("order/list", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = greedyOrderList(g, order)
		}
	})
	b.Run("order/bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = greedyOrderDense(d, order)
		}
	})
	// The exact solver always runs on bitset rows, packing once per call.
	exactG := graph.GnP(140, 0.4, rand.New(rand.NewSource(7)))
	b.Run("exact/repack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExactOpts(exactG, ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreedyWeightedDense measures the weighted greedy (static
// weight/(deg+1) order + scan kernel) on the dense benchmark instance,
// against the unweighted min-degree greedy as the baseline the weighted
// path must stay comparable to.
func BenchmarkGreedyWeightedDense(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	base := benchDenseGraph(b)
	ws := make([]int64, base.N())
	for i := range ws {
		ws[i] = 1 + rng.Int63n(1<<20)
	}
	g, err := graph.WithWeights(base, ws)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("weighted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = GreedyWeighted(g)
		}
	})
	b.Run("unweighted-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = GreedyMinDegree(base)
		}
	})
}

// BenchmarkBipartiteExact sizes the König path against branch-and-bound
// on a bipartite instance where both are exact.
func BenchmarkBipartiteExact(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomBipartite(1024, 0.02, rng)
	b.Run("koenig", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set, err := BipartiteExact(g)
			if err != nil {
				b.Fatal(err)
			}
			sink = set
		}
	})
}

// sink defeats dead-code elimination of the benchmarked results.
var sink []int32
