package solver

// bench_test.go proves the zero-allocation serve path: a cache-hit
// read — body buffering, content hashing, key lookup, Instance fill —
// allocates nothing, and an answer hit allocates only the Instance.
// BenchmarkSolverCacheHitAllocs and BenchmarkSolverAnswerHit are
// recorded into BENCH_gk.json by scripts/bench.sh and guarded by the
// benchmerge allocation gate; TestCacheHitReadAllocatesNothing and
// TestAnswerHitAllocatesOnlyTheInstance enforce the same lines in every
// `go test` run.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/obs"
)

// benchGraphBody serialises a moderately dense graph as edge-list bytes.
func benchGraphBody(tb testing.TB, n int, p float64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, graph.GnP(n, p, rng), graphio.FormatEdgeList); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkSolverCacheHitAllocs(b *testing.B) {
	s := New(WithCache(8))
	body := benchGraphBody(b, 256, 0.3)
	r := bytes.NewReader(body)
	var inst Instance
	if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
			b.Fatal(err)
		}
	}
	if !inst.CacheHit {
		b.Fatal("expected a cache hit")
	}
}

// benchWeightedGraphBody is benchGraphBody with a skewed weight vector,
// so the cache-hit and serve-path lines are also held on weighted bodies
// (weights live in the body bytes, so the sha256 key covers them for
// free — the read path must stay allocation-identical).
func benchWeightedGraphBody(tb testing.TB, n int, p float64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1 + rng.Int63n(1<<20)
	}
	g, err := graph.WithWeights(graph.GnP(n, p, rng), ws)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, g, graphio.FormatEdgeList); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkSolverCacheHitAllocsWeighted holds the zero-allocation line on
// weighted bodies; the bench.sh alloc gate matches it by substring.
func BenchmarkSolverCacheHitAllocsWeighted(b *testing.B) {
	s := New(WithCache(8))
	body := benchWeightedGraphBody(b, 256, 0.3)
	r := bytes.NewReader(body)
	var inst Instance
	if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
			b.Fatal(err)
		}
	}
	if !inst.CacheHit {
		b.Fatal("expected a cache hit")
	}
	if !inst.Weighted() {
		b.Fatal("expected a weighted instance")
	}
}

// BenchmarkSolverMaxISReaderHot is the end-to-end serve path on a hot
// instance — read, hash, hit, inject the cached dense pack, solve. The
// solve itself allocates (the result set), so this tracks total per-hit
// cost rather than the zero line.
func BenchmarkSolverMaxISReaderHot(b *testing.B) {
	benchMaxISReaderHot(b, benchGraphBody(b, 256, 0.3))
}

// BenchmarkSolverMaxISReaderHotWeighted is the serve path on a hot
// weighted instance: same read/hash/hit pipeline, weighted greedy solve.
func BenchmarkSolverMaxISReaderHotWeighted(b *testing.B) {
	benchMaxISReaderHot(b, benchWeightedGraphBody(b, 256, 0.3))
}

// benchMaxISReaderHot times instance-cache hits that still solve. The
// answer key of greedy-mindeg-bitset includes the seed, so each
// iteration runs under a fresh seed (its Solver derived before the
// timer) and misses the answer store.
func benchMaxISReaderHot(b *testing.B, body []byte) {
	s := New(WithCache(8), WithOracle("greedy-mindeg-bitset"))
	ctx := context.Background()
	if _, _, err := s.MaxISReader(ctx, bytes.NewReader(body), graphio.FormatEdgeList); err != nil {
		b.Fatal(err)
	}
	seeded := make([]*Solver, b.N)
	for i := range seeded {
		seeded[i] = s.With(WithSeed(int64(i + 2)))
	}
	r := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		_, inst, err := seeded[i].MaxISReader(ctx, r, graphio.FormatEdgeList)
		if err != nil {
			b.Fatal(err)
		}
		if !inst.CacheHit || inst.AnswerHit {
			b.Fatalf("CacheHit=%v AnswerHit=%v, want an instance hit that solves", inst.CacheHit, inst.AnswerHit)
		}
	}
}

// BenchmarkSolverAnswerHit is a hot reduce answered from the answer
// store: read, hash, instance hit, answer hit, no solve. It allocates
// only the returned Instance, a line the bench.sh alloc gate holds.
func BenchmarkSolverAnswerHit(b *testing.B) {
	s := New(WithCache(8), WithK(3))
	body := benchHypergraphBody(b)
	ctx := context.Background()
	if _, _, err := s.SolveReader(ctx, bytes.NewReader(body), graphio.FormatEdgeList); err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		_, inst, err := s.SolveReader(ctx, r, graphio.FormatEdgeList)
		if err != nil {
			b.Fatal(err)
		}
		if !inst.AnswerHit {
			b.Fatal("expected an answer hit")
		}
	}
}

// TestCacheHitReadAllocatesNothing pins the zero-alloc contract with
// AllocsPerRun, so a regression fails `go test` rather than waiting for a
// benchmark diff.
func TestCacheHitReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero line is checked in the non-race run")
	}
	s := New(WithCache(8))
	body := benchGraphBody(t, 64, 0.3)
	r := bytes.NewReader(body)
	var inst Instance
	if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
		t.Fatal(err)
	}
	// Warm the scratch pool so steady state, not first touch, is measured.
	for i := 0; i < 4; i++ {
		r.Reset(body)
		if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit read allocates %.1f objects per op, want 0", allocs)
	}
	if !inst.CacheHit {
		t.Error("expected a cache hit")
	}
}

// TestWeightedCacheHitReadAllocatesNothing holds the same zero line on a
// weighted body: weights ride in the body bytes, so the hit path must not
// grow an allocation for them.
func TestWeightedCacheHitReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero line is checked in the non-race run")
	}
	s := New(WithCache(8))
	body := benchWeightedGraphBody(t, 64, 0.3)
	r := bytes.NewReader(body)
	var inst Instance
	if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r.Reset(body)
		if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if _, _, err := s.readGraphInto(context.Background(), r, graphio.FormatEdgeList, &inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("weighted cache-hit read allocates %.1f objects per op, want 0", allocs)
	}
	if !inst.CacheHit || !inst.Weighted() {
		t.Errorf("expected a weighted cache hit (hit=%v weighted=%v)", inst.CacheHit, inst.Weighted())
	}
}

// BenchmarkSolverCacheHitAllocsTraced is the cache-hit read with a live
// trace on the context: span recording rides the same zero line, so the
// bench.sh alloc gate (matching SolverCacheHitAllocs by substring) holds
// tracing to 0 allocs/op on the hot path.
func BenchmarkSolverCacheHitAllocsTraced(b *testing.B) {
	s := New(WithCache(8))
	body := benchGraphBody(b, 256, 0.3)
	r := bytes.NewReader(body)
	var inst Instance
	tr := obs.NewTrace("bench", "bench-req-id")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, _, err := s.readGraphInto(ctx, r, graphio.FormatEdgeList, &inst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset("bench", "bench-req-id")
		r.Reset(body)
		if _, _, err := s.readGraphInto(ctx, r, graphio.FormatEdgeList, &inst); err != nil {
			b.Fatal(err)
		}
	}
	if !inst.CacheHit {
		b.Fatal("expected a cache hit")
	}
}

// TestTracedCacheHitReadAllocatesNothing pins the traced zero line with
// AllocsPerRun: recording read_hash/cache_lookup spans must not add an
// allocation over the untraced hit path.
func TestTracedCacheHitReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero line is checked in the non-race run")
	}
	s := New(WithCache(8))
	body := benchGraphBody(t, 64, 0.3)
	r := bytes.NewReader(body)
	var inst Instance
	tr := obs.NewTrace("alloc", "alloc-req-id")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, _, err := s.readGraphInto(ctx, r, graphio.FormatEdgeList, &inst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tr.Reset("alloc", "alloc-req-id")
		r.Reset(body)
		if _, _, err := s.readGraphInto(ctx, r, graphio.FormatEdgeList, &inst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		tr.Reset("alloc", "alloc-req-id")
		r.Reset(body)
		if _, _, err := s.readGraphInto(ctx, r, graphio.FormatEdgeList, &inst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("traced cache-hit read allocates %.1f objects per op, want 0", allocs)
	}
	if !inst.CacheHit {
		t.Error("expected a cache hit")
	}
	if snap := tr.Snapshot(); len(snap.Spans) == 0 {
		t.Error("trace recorded no spans on the hit path")
	}
}
