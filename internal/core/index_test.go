package core

import (
	"errors"
	"math/rand"
	"testing"

	"pslocal/internal/hypergraph"
)

func mustIndex(t *testing.T, h *hypergraph.Hypergraph, k int) *Index {
	t.Helper()
	ix, err := NewIndex(h, k)
	if err != nil {
		t.Fatalf("NewIndex error: %v", err)
	}
	return ix
}

func TestIndexSizeFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		h, _, err := hypergraph.PlantedCF(20, 10, 3, 2, 5, rng)
		if err != nil {
			t.Fatalf("PlantedCF error: %v", err)
		}
		for _, k := range []int{1, 2, 4} {
			ix := mustIndex(t, h, k)
			if got, want := ix.NumNodes(), k*h.TotalEdgeSize(); got != want {
				t.Errorf("NumNodes = %d, want k·Σ|e| = %d", got, want)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, _, err := hypergraph.PlantedCF(15, 8, 2, 2, 4, rng)
	if err != nil {
		t.Fatalf("PlantedCF error: %v", err)
	}
	ix := mustIndex(t, h, 3)
	count := 0
	ix.ForEachTriple(func(id int32, tr Triple) bool {
		count++
		gotID, err := ix.ID(tr)
		if err != nil {
			t.Fatalf("ID(%v) error: %v", tr, err)
		}
		if gotID != id {
			t.Fatalf("ID(%v) = %d, want %d", tr, gotID, id)
		}
		back, err := ix.TripleOf(id)
		if err != nil {
			t.Fatalf("TripleOf(%d) error: %v", id, err)
		}
		if back != tr {
			t.Fatalf("TripleOf(%d) = %v, want %v", id, back, tr)
		}
		return true
	})
	if count != ix.NumNodes() {
		t.Errorf("ForEachTriple visited %d, want %d", count, ix.NumNodes())
	}
}

func TestIndexErrors(t *testing.T) {
	h := hypergraph.MustNew(4, [][]int32{{0, 1}, {2, 3}})
	if _, err := NewIndex(h, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v, want ErrBadK", err)
	}
	ix := mustIndex(t, h, 2)
	bad := []Triple{
		{Edge: -1, Vertex: 0, Color: 1},
		{Edge: 2, Vertex: 0, Color: 1},
		{Edge: 0, Vertex: 2, Color: 1}, // vertex 2 not in edge 0
		{Edge: 0, Vertex: 0, Color: 0},
		{Edge: 0, Vertex: 0, Color: 3},
	}
	for _, tr := range bad {
		if _, err := ix.ID(tr); !errors.Is(err, ErrBadTriple) {
			t.Errorf("ID(%v) error = %v, want ErrBadTriple", tr, err)
		}
	}
	if _, err := ix.TripleOf(-1); !errors.Is(err, ErrBadNodeID) {
		t.Errorf("TripleOf(-1) error = %v, want ErrBadNodeID", err)
	}
	if _, err := ix.TripleOf(int32(ix.NumNodes())); !errors.Is(err, ErrBadNodeID) {
		t.Errorf("TripleOf(max) error = %v, want ErrBadNodeID", err)
	}
}

func TestEdgeCliqueHintMatchesBlocks(t *testing.T) {
	h := hypergraph.MustNew(5, [][]int32{{0, 1, 2}, {2, 3}, {4}})
	ix := mustIndex(t, h, 2)
	hint := ix.EdgeCliqueHint()
	if len(hint) != ix.NumNodes() {
		t.Fatalf("hint length %d, want %d", len(hint), ix.NumNodes())
	}
	ix.ForEachTriple(func(id int32, tr Triple) bool {
		if hint[id] != tr.Edge {
			t.Fatalf("hint[%d] = %d, want edge %d", id, hint[id], tr.Edge)
		}
		return true
	})
}

// TestIndexLookupsDoNotCopyEdges: TripleOf and ID read the hyperedge in
// place, so they allocate nothing, and IDsToTriples allocates only its
// result — the lookups the cache-hit path runs once per triple.
func TestIndexLookupsDoNotCopyEdges(t *testing.T) {
	h := hypergraph.MustNew(6, [][]int32{{0, 1, 2}, {2, 3, 4, 5}})
	ix := mustIndex(t, h, 3)
	ids := []int32{0, 5, 9, 20}
	tr := Triple{Edge: 1, Vertex: 4, Color: 2}
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"TripleOf", 0, func() { _, _ = ix.TripleOf(13) }},
		{"ID", 0, func() { _, _ = ix.ID(tr) }},
		{"IDsToTriples", 1, func() { _, _ = IDsToTriples(ix, ids) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}
