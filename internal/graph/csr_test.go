package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// requireSameCSR asserts byte-for-byte CSR equality.
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
	// A duplicate-free emission takes the "already final" branch of
	// Builder.Build; the invariants must still hold.
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g, err := b.Build()
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

// TestParallelBuildMatchesSortReference holds Builder.Build to the naive
// definition of the CSR it must produce: every node's emitted
// neighbours, sorted and compacted one node at a time. Edge multisets
// on up to 64 nodes repeat edges in both orientations; some carry
// weights, and some carry self loops and out-of-range endpoints, whose
// joined error must read exactly as the emission order implies.
func TestParallelBuildMatchesSortReference(t *testing.T) {
	check := func(seed int64, nodes uint8, weighted, invalid bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes)%64
		edges := randomEdges(n, rng.Intn(4*n+1), rng)
		b := NewBuilder(n)
		adj := make([][]int32, n)
		var wantErrs []error
		for _, e := range edges {
			if invalid && rng.Intn(8) == 0 {
				// Swap in a self loop or an out-of-range endpoint.
				if rng.Intn(2) == 0 {
					e[1] = e[0]
					wantErrs = append(wantErrs, fmt.Errorf("%w: node %d", ErrSelfLoop, e[0]))
				} else {
					e[1] = int32(n + rng.Intn(3))
					wantErrs = append(wantErrs, fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrNodeRange, e[0], e[1], n))
				}
			} else {
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
			b.AddEdge(e[0], e[1])
		}
		var ws []int64
		if weighted {
			ws = make([]int64, n)
			for v := range ws {
				ws[v] = rng.Int63n(10)
			}
			b.SetWeights(ws)
		}
		got, err := b.Build()
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

// TestFromCSR: well-formed rows come back as the graph Builder assembles
// from the same edges, and every malformed row is rejected without a
// panic.
func TestFromCSR(t *testing.T) {
	want := MustFromEdges(t, 4, [][2]int32{{0, 1}, {0, 2}, {2, 3}})
	got, err := FromCSR([]int32{0, 2, 3, 5, 6}, []int32{1, 2, 0, 0, 3, 2})
	if err != nil {
		t.Fatalf("FromCSR: %v", err)
	}
	requireSameCSR(t, got, want)
	if g, err := FromCSR([]int32{0}, nil); err != nil || g.N() != 0 {
		t.Errorf("empty CSR: n=%v err=%v", g, err)
	}
	bad := []struct {
		name             string
		offsets, targets []int32
		want             error
	}{
		{"no offsets", nil, nil, nil},
		{"offsets[0] != 0", []int32{1, 1}, []int32{0}, nil},
		{"short targets", []int32{0, 2}, []int32{1}, nil},
		{"non-monotone", []int32{0, 2, 1, 3}, []int32{1, 2, 0}, nil},
		{"offset past targets", []int32{0, 5, 2}, []int32{1, 0}, nil},
		{"out of range", []int32{0, 1, 2}, []int32{2, 0}, ErrNodeRange},
		{"negative", []int32{0, 1, 2}, []int32{-1, 0}, ErrNodeRange},
		{"self loop", []int32{0, 1, 2}, []int32{0, 0}, ErrSelfLoop},
		{"unsorted", []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}, nil},
		{"repeat", []int32{0, 2, 4}, []int32{1, 1, 0, 0}, nil},
	}
	for _, c := range bad {
		_, err := FromCSR(c.offsets, c.targets)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}
