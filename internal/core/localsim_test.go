package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pslocal/internal/cfcolor"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
)

// TestForEachNeighborTripleMatchesAdjacent: the row the emitter writes
// for each triple must be exactly {id' : Adjacent(t, t')}, in strictly
// ascending order — the neighbourhood both Build and virtual Luby read.
func TestForEachNeighborTripleMatchesAdjacent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		var h *hypergraph.Hypergraph
		var err error
		switch trial % 3 {
		case 0:
			h, err = hypergraph.Uniform(8+rng.Intn(5), 3+rng.Intn(4), 3, rng)
		case 1:
			h, _, err = hypergraph.PlantedCF(8+rng.Intn(5), 3+rng.Intn(4), 2, 2, 4, rng)
		default:
			h, err = randomMultiHypergraph(rng, false)
		}
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		k := 1 + rng.Intn(3)
		ix := mustIndex(t, h, k)
		rows := rowWriter{ix: ix}
		var row, want []int32
		ix.ForEachTriple(func(id int32, tr Triple) bool {
			rows.reset(tr.Edge)
			row = rows.appendRow(row[:0], (id-ix.edgeOffset[tr.Edge])/ix.k, tr.Color)
			want = want[:0]
			ix.ForEachTriple(func(other int32, ot Triple) bool {
				adj, err := Adjacent(ix, tr, ot)
				if err != nil {
					t.Fatalf("Adjacent error: %v", err)
				}
				if adj {
					want = append(want, other)
				}
				return true
			})
			if !slices.Equal(row, want) {
				t.Fatalf("trial %d: row of %v = %v, want %v", trial, tr, row, want)
			}
			return true
		})
	}
}

// TestVirtualLubyGoldens pins VirtualLubyTriples on fixed seeds: the
// triples, in output order, and the phase counts. A change to the rows or
// to the bid/join order of the run shows here.
func TestVirtualLubyGoldens(t *testing.T) {
	planted, _, err := hypergraph.PlantedCF(14, 7, 2, 2, 4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := hypergraph.Uniform(10, 6, 3, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	repeated := hypergraph.MustNew(5, [][]int32{{0, 1, 2}, {0, 1, 2}, {3}, {3}, {1, 3, 4}})
	for _, g := range []struct {
		name    string
		h       *hypergraph.Hypergraph
		k       int
		seed    int64
		phases  int
		triples string
	}{
		{"planted k=2 seed 1", planted, 2, 1, 3, "(e1,v5,c1)(e3,v2,c1)(e4,v12,c2)(e5,v8,c1)(e6,v13,c1)(e0,v7,c2)(e2,v12,c2)"},
		{"planted k=3 seed 2", planted, 3, 2, 2, "(e1,v10,c3)(e4,v12,c2)(e5,v8,c3)(e6,v13,c1)(e0,v8,c3)(e2,v12,c2)(e3,v7,c2)"},
		{"uniform k=3 seed 3", uniform, 3, 3, 2, "(e2,v9,c2)(e3,v7,c3)(e5,v6,c1)(e0,v9,c2)(e1,v0,c3)(e4,v4,c1)"},
		{"repeated k=1 seed 4", repeated, 1, 4, 2, "(e0,v0,c1)(e4,v4,c1)(e1,v0,c1)"},
		{"repeated k=2 seed 5", repeated, 2, 5, 2, "(e1,v2,c1)(e2,v3,c2)(e3,v3,c2)(e4,v4,c1)(e0,v1,c2)"},
	} {
		ts, stats, err := VirtualLubyTriples(mustIndex(t, g.h, g.k), g.seed, 0)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		var b strings.Builder
		for _, tr := range ts {
			b.WriteString(tr.String())
		}
		if got := b.String(); got != g.triples || stats.Phases != g.phases {
			t.Errorf("%s: %d phases %s, want %d phases %s", g.name, stats.Phases, got, g.phases, g.triples)
		}
	}
	// A larger instance, pinned by count, phases and an FNV-64a hash of
	// the triple sequence.
	big, _, err := hypergraph.PlantedCF(300, 200, 3, 2, 4, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		seed          int64
		count, phases int
		hash          uint64
	}{{6, 194, 4, 0x342958de55b547f2}, {7, 195, 4, 0x38b8d805380a6ce5}} {
		ts, stats, err := VirtualLubyTriples(mustIndex(t, big, 3), want.seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", want.seed, err)
		}
		hs := fnv.New64a()
		for _, tr := range ts {
			hs.Write([]byte(tr.String()))
		}
		if len(ts) != want.count || stats.Phases != want.phases || hs.Sum64() != want.hash {
			t.Errorf("seed %d: %d triples, %d phases, hash %#x; want %d, %d, %#x",
				want.seed, len(ts), stats.Phases, hs.Sum64(), want.count, want.phases, want.hash)
		}
	}
}

func TestVirtualLubyIsMaximalIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		h, _, err := hypergraph.PlantedCF(12+rng.Intn(8), 5+rng.Intn(5), 2, 2, 4, rng)
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		k := 1 + rng.Intn(3)
		ix := mustIndex(t, h, k)
		triples, stats, err := VirtualLubyTriples(ix, int64(trial), 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.Phases < 1 || stats.VirtualRounds != 2*stats.Phases ||
			stats.HostRounds != HostDilation*stats.VirtualRounds {
			t.Errorf("trial %d: inconsistent stats %+v", trial, stats)
		}
		// Independence and maximality, checked on the explicit graph.
		g, err := Build(ix)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		ids, err := TriplesToIDs(ix, triples)
		if err != nil {
			t.Fatalf("ids: %v", err)
		}
		if !maxis.IsMaximalIndependentSet(g, ids) {
			t.Fatalf("trial %d: virtual Luby output is not a maximal independent set of G_k", trial)
		}
	}
}

func TestVirtualLubyPhaseBudget(t *testing.T) {
	h := hypergraph.MustNew(4, [][]int32{{0, 1}, {1, 2}, {2, 3}})
	ix := mustIndex(t, h, 2)
	// maxPhases = 1 cannot finish a 3-edge instance... actually one phase
	// can finish if every block resolves; use a deterministic check: the
	// budget error must surface when the budget is absurdly small and the
	// run needs more phases. Run with budget 1 repeatedly; accept either
	// success (lucky single phase) or ErrTooManyPhases, never another
	// error.
	for seed := int64(0); seed < 10; seed++ {
		_, _, err := VirtualLubyTriples(ix, seed, 1)
		if err != nil && !errors.Is(err, ErrTooManyPhases) {
			t.Fatalf("seed %d: unexpected error %v", seed, err)
		}
	}
}

func TestReduceLocalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		h, _, err := hypergraph.PlantedCF(15, 30, 2, 3, 5, rng)
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		res, err := ReduceLocalRandomized(nil, h, 2, int64(trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !cfcolor.IsConflictFreeMulti(h, res.Multicoloring) {
			t.Fatalf("trial %d: result not conflict-free", trial)
		}
		if res.TotalColors != 2*len(res.Phases) {
			t.Errorf("trial %d: colours %d != 2·phases", trial, res.TotalColors)
		}
		if res.VirtualRounds <= 0 || res.HostRounds != HostDilation*res.VirtualRounds {
			t.Errorf("trial %d: round accounting broken: %+v", trial, res)
		}
		edges := h.M()
		for _, ph := range res.Phases {
			if ph.EdgesBefore != edges {
				t.Errorf("trial %d: phase chain broken", trial)
			}
			edges -= ph.HappyRemoved
		}
		if edges != 0 {
			t.Errorf("trial %d: %d edges left", trial, edges)
		}
	}
}

// TestReduceLocalRandomizedGoldens pins the whole pipeline, not only one
// Luby run: the per-phase seeds seed+i, the phase statistics, the summed
// virtual rounds and the multicolouring (an FNV-64a hash of its %v
// rendering).
// The values were recorded from the pipeline's own phase loop before it
// moved onto Reduce's.
func TestReduceLocalRandomizedGoldens(t *testing.T) {
	planted, _, err := hypergraph.PlantedCF(15, 30, 2, 3, 5, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := hypergraph.PlantedCF(200, 150, 3, 2, 4, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		h             *hypergraph.Hypergraph
		k             int
		seed          int64
		virtual       int
		phases        string // (edges before, G_k nodes, |I|, removed) per phase
		multicoloring uint64
	}{
		{planted, 2, 1, 16, "(30,236,20,20)(10,76,10,10)", 0xfdbed2ae4e8f237c},
		{planted, 3, 7, 12, "(30,354,26,26)(4,39,4,4)", 0x645f18b8cee202fc},
		{big, 3, 5, 10, "(150,1344,147,147)(3,21,3,3)", 0xc96e6dcaeb607368},
	} {
		res, err := ReduceLocalRandomized(nil, g.h, g.k, g.seed)
		if err != nil {
			t.Fatalf("k=%d seed=%d: %v", g.k, g.seed, err)
		}
		var phases strings.Builder
		for _, p := range res.Phases {
			fmt.Fprintf(&phases, "(%d,%d,%d,%d)", p.EdgesBefore, p.ConflictNodes, p.ISSize, p.HappyRemoved)
		}
		hash := fnv.New64a()
		fmt.Fprint(hash, res.Multicoloring)
		if phases.String() != g.phases || res.VirtualRounds != g.virtual || hash.Sum64() != g.multicoloring {
			t.Errorf("k=%d seed=%d: phases %s, %d virtual rounds, multicolouring %#x; want %s, %d, %#x",
				g.k, g.seed, phases.String(), res.VirtualRounds, hash.Sum64(), g.phases, g.virtual, g.multicoloring)
		}
	}
}

func TestReduceLocalRandomizedErrors(t *testing.T) {
	h := hypergraph.MustNew(2, [][]int32{{0, 1}})
	if _, err := ReduceLocalRandomized(nil, h, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestReduceLocalRandomizedEmptyHypergraph(t *testing.T) {
	h := hypergraph.MustNew(3, nil)
	res, err := ReduceLocalRandomized(nil, h, 2, 1)
	if err != nil {
		t.Fatalf("error: %v", err)
	}
	if len(res.Phases) != 0 || res.VirtualRounds != 0 {
		t.Errorf("empty hypergraph: %+v", res)
	}
}
