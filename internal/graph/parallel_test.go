package graph

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pslocal/internal/engine"
)

// requireSameCSR asserts byte-for-byte CSR equality, the contract of the
// sharded assembly path.
func requireSameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.offsets) != len(want.offsets) {
		t.Fatalf("offsets length %d, want %d", len(got.offsets), len(want.offsets))
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("offsets[%d] = %d, want %d", i, got.offsets[i], want.offsets[i])
		}
	}
	if len(got.targets) != len(want.targets) {
		t.Fatalf("targets length %d, want %d", len(got.targets), len(want.targets))
	}
	for i := range want.targets {
		if got.targets[i] != want.targets[i] {
			t.Fatalf("targets[%d] = %d, want %d", i, got.targets[i], want.targets[i])
		}
	}
}

// randomEdges returns a multiset of valid edges with deliberate duplicates.
func randomEdges(n, m int, rng *rand.Rand) [][2]int32 {
	if n < 2 {
		return nil // a simple graph on < 2 nodes has no edges
	}
	out := make([][2]int32, 0, m)
	for len(out) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		out = append(out, [2]int32{u, v})
		if rng.Intn(4) == 0 { // duplicate, sometimes flipped
			out = append(out, [2]int32{v, u})
		}
	}
	return out
}

func TestParallelBuildEquivalentToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		m := rng.Intn(4 * n)
		edges := randomEdges(n, m, rng)

		serial := NewBuilder(n)
		for _, e := range edges {
			serial.AddEdge(e[0], e[1])
		}
		want, err := serial.Build()
		if err != nil {
			t.Fatalf("serial build: %v", err)
		}
		if err := want.Validate(); err != nil {
			t.Fatalf("serial invariants: %v", err)
		}

		for _, shards := range []int{1, 2, 3, 8} {
			for _, workers := range []int{1, 2, 4} {
				sb := NewShardedBuilder(n, shards)
				for i, e := range edges {
					sb.Shard(i%shards).AddEdge(e[0], e[1])
				}
				got, err := sb.ParallelBuild(engine.Options{Workers: workers})
				if err != nil {
					t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
				}
				requireSameCSR(t, got, want)
			}
		}
	}
}

func TestShardedBuilderErrorsSurface(t *testing.T) {
	sb := NewShardedBuilder(4, 3)
	sb.Shard(0).AddEdge(0, 1)
	sb.Shard(1).AddEdge(2, 9) // out of range
	sb.Shard(2).AddEdge(3, 3) // self loop
	_, err := sb.ParallelBuild(engine.Options{Workers: 2})
	if !errors.Is(err, ErrNodeRange) {
		t.Errorf("missing ErrNodeRange: %v", err)
	}
	if !errors.Is(err, ErrSelfLoop) {
		t.Errorf("missing ErrSelfLoop: %v", err)
	}
}

func TestShardedBuilderNegativeSize(t *testing.T) {
	sb := NewShardedBuilder(-1, 2)
	if _, err := sb.Build(); !errors.Is(err, ErrNegativeSize) {
		t.Errorf("err = %v, want ErrNegativeSize", err)
	}
}

func TestParallelBuildCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sb := NewShardedBuilder(4, 2)
	sb.Shard(0).AddEdge(0, 1)
	_, err := sb.ParallelBuild(engine.Options{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestEdgeCapacityHintPreservesResult(t *testing.T) {
	b1 := NewBuilder(10)
	b2 := NewBuilder(10)
	b2.EdgeCapacityHint(64)
	b2.EdgeCapacityHint(-1) // no-op
	rng := rand.New(rand.NewSource(9))
	for _, e := range randomEdges(10, 30, rng) {
		b1.AddEdge(e[0], e[1])
		b2.AddEdge(e[0], e[1])
	}
	g1 := b1.MustBuild()
	g2 := b2.MustBuild()
	requireSameCSR(t, g2, g1)
}

func TestParallelBuildNoDuplicatesFastPath(t *testing.T) {
	// A duplicate-free emission takes the "already final" branch; the
	// invariants must still hold.
	sb := NewShardedBuilder(5, 2)
	sb.Shard(0).AddEdge(0, 1)
	sb.Shard(0).AddEdge(1, 2)
	sb.Shard(1).AddEdge(3, 4)
	g, err := sb.ParallelBuild(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
}

// TestParallelBuildMatchesSortReference holds the sharded assembler to
// the naive definition of the CSR it must produce: every node's emitted
// neighbours, sorted and compacted one node at a time. Edge multisets
// on up to 64 nodes repeat edges in both orientations; some carry
// weights, and some carry self loops and out-of-range endpoints, whose
// joined error must read exactly as the shards' emission order implies.
func TestParallelBuildMatchesSortReference(t *testing.T) {
	check := func(seed int64, nodes, shards, workers uint8, weighted, invalid bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes)%64
		w := 1 + int(shards)%4
		edges := randomEdges(n, rng.Intn(4*n+1), rng)
		sb := NewShardedBuilder(n, w)
		adj := make([][]int32, n)
		var wantErrs []error
		for i, e := range edges {
			sh := i % w
			if invalid && rng.Intn(8) == 0 {
				// Swap in a self loop or an out-of-range endpoint.
				if rng.Intn(2) == 0 {
					e[1] = e[0]
					wantErrs = append(wantErrs, fmt.Errorf("%w: node %d", ErrSelfLoop, e[0]))
				} else {
					e[1] = int32(n + rng.Intn(3))
					wantErrs = append(wantErrs, fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrNodeRange, e[0], e[1], n))
				}
				// Errors join in shard order, so only shard 0 gets them.
				sh = 0
			} else {
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
			sb.Shard(sh).AddEdge(e[0], e[1])
		}
		var ws []int64
		if weighted {
			ws = make([]int64, n)
			for v := range ws {
				ws[v] = rng.Int63n(10)
			}
			sb.Shard(w - 1).SetWeights(ws)
		}
		got, err := sb.ParallelBuild(engine.Options{Workers: 1 + int(workers)%4})
		if len(wantErrs) > 0 {
			if err == nil || err.Error() != errors.Join(wantErrs...).Error() {
				t.Logf("seed %d: err = %v, want %v", seed, err, errors.Join(wantErrs...))
				return false
			}
			return true
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := &Graph{offsets: make([]int32, n+1)}
		for v, a := range adj {
			slices.Sort(a)
			a = slices.Compact(a)
			want.targets = append(want.targets, a...)
			want.offsets[v+1] = int32(len(want.targets))
		}
		if slices.ContainsFunc(ws, func(x int64) bool { return x != 1 }) {
			want.weights = ws
		}
		return slices.Equal(got.offsets, want.offsets) && slices.Equal(got.targets, want.targets) &&
			slices.Equal(got.weights, want.weights)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
