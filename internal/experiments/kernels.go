package experiments

// kernels.go implements E14, the bitset-kernel experiment: the
// word-parallel oracle kernels against their adjacency-list twins on
// conflict graphs from both sides of the density cutoff. Crowded planted
// instances (few vertices, heavy edge overlap) produce dense G_k where
// the kernels engage; spread instances stay below the cutoff, where the
// bitset oracle must be bit-identical to the list oracle it falls back
// to.

import (
	"fmt"
	"math/rand"

	"pslocal/internal/core"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
)

// E14BitsetKernels runs the min-degree list oracle and its bitset twin on
// a grid of conflict graphs spanning the density cutoff. Every output
// must verify; on sub-cutoff instances the twin oracles must agree
// element for element (the bitset oracle routes to the list kernel
// there), and the grid must exercise both regimes.
func E14BitsetKernels(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "bitset kernels vs adjacency-list oracles",
		Claim:   "kernel outputs verify on both sides of the density cutoff; below it the bitset oracle equals greedy-mindeg",
		Columns: []string{"n", "m", "k", "|V(G_k)|", "kernel", "oracle", "|I|", "ok"},
		Notes: []string{
			"kernel=yes: G_k cleared the density cutoff and the bitset rows are in use",
			"above the cutoff |I| may differ between the twins: the dense kernel breaks degree ties by id",
		},
	}
	// Crowded instances (15 vertices, long edges) put G_k above the
	// cutoff; the spread instances (short edges over many vertices, so
	// cliques are small and overlaps rare) stay below it.
	grid := [][5]int{
		{15, 40, 2, 4, 6},  // dense: heavy overlap on few vertices
		{15, 60, 2, 4, 6},  // dense, larger
		{120, 24, 2, 3, 4}, // sparse spread instance
		{300, 40, 3, 3, 4}, // sparse, larger
	}
	if cfg.Quick {
		grid = [][5]int{{15, 24, 2, 4, 6}, {120, 24, 2, 3, 4}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 60))
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("experiments: E14 "+format, args...)
		}
	}
	sawDense, sawSparse := false, false
	for _, gr := range grid {
		n, m, k := gr[0], gr[1], gr[2]
		h, _, err := hypergraph.PlantedCF(n, m, k, gr[3], gr[4], rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 generator: %w", err)
		}
		ix, err := core.NewIndex(h, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 index: %w", err)
		}
		g, err := core.BuildOpts(ix, cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 build: %w", err)
		}
		dense := maxis.DenseEligible(g)
		if dense {
			sawDense = true
		} else {
			sawSparse = true
		}

		list := maxis.GreedyMinDegree(g)
		bitset := maxis.GreedyMinDegreeBitset(g)
		listOK := maxis.IsIndependentSet(g, list)
		bitsetOK := maxis.IsIndependentSet(g, bitset)
		agree := true
		if !dense {
			agree = len(list) == len(bitset)
			for i := 0; agree && i < len(list); i++ {
				agree = list[i] == bitset[i]
			}
		}
		if !listOK || !bitsetOK {
			fail("oracle output failed verification at n=%d m=%d k=%d", n, m, k)
		}
		if !agree {
			fail("sparse fallback diverged from greedy-mindeg at n=%d m=%d k=%d", n, m, k)
		}
		kernel := btoa(dense)
		t.AddRow(itoa(n), itoa(m), itoa(k), itoa(g.N()), kernel,
			"greedy-mindeg", itoa(len(list)), btoa(listOK))
		t.AddRow(itoa(n), itoa(m), itoa(k), itoa(g.N()), kernel,
			"greedy-mindeg-bitset", itoa(len(bitset)), btoa(bitsetOK && agree))
	}
	if !sawDense || !sawSparse {
		fail("grid missed a density regime: dense=%v sparse=%v", sawDense, sawSparse)
	}
	return t, firstErr
}
