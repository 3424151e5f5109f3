package core

// localsim.go makes the paper's remark "the conflict graph G_k can be
// efficiently simulated in H in the LOCAL model" executable. Triples
// (e, v, c) are hosted at their vertex v; every conflict-graph neighbour
// of a triple lives within two hops of v in the bipartite incidence
// structure of H (through e for E_edge/E_color, through v itself for
// E_vertex), so one synchronous round of any G_k algorithm costs O(1)
// rounds of H. VirtualLubyTriples runs Luby's randomized MIS over this
// virtual graph, reading each triple's neighbours from conflict.go's
// rowWriter: the rows Build stores, written per hyperedge and dropped
// after use. ReduceLocalRandomized runs it as the phase step of Reduce's
// loop: the fully distributed (randomized) Theorem 1.1 pipeline.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"pslocal/internal/engine"
	"pslocal/internal/hypergraph"
	"pslocal/internal/obs"
)

// ErrTooManyPhases reports a Luby run that did not converge within the
// phase budget (vanishingly unlikely for correct inputs).
var ErrTooManyPhases = errors.New("core: virtual Luby phase budget exhausted")

// HostDilation is the number of H-incidence rounds needed to emulate one
// synchronous round of G_k: a request and a reply across the two-hop
// v–e–u paths of the incidence structure.
const HostDilation = 4

// LubyStats reports a virtual Luby run.
type LubyStats struct {
	// Phases is the number of bid/join phases executed.
	Phases int
	// VirtualRounds is 2·Phases, the synchronous rounds on G_k.
	VirtualRounds int
	// HostRounds is VirtualRounds·HostDilation, the cost after simulating
	// G_k on H's incidence structure.
	HostRounds int
}

// VirtualLubyTriples runs Luby's randomized MIS over the implicit
// conflict graph G_k, never materialising it. The result is a maximal
// independent set of G_k; with probability 1 the run converges, and the
// phase budget (0 = a generous default) only guards against broken
// randomness.
func VirtualLubyTriples(ix *Index, seed int64, maxPhases int) ([]Triple, *LubyStats, error) {
	n := ix.NumNodes()
	if maxPhases <= 0 {
		maxPhases = 8*bitsLen(n) + 32
	}
	rng := rand.New(rand.NewSource(seed))
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	activeCount := n
	var out []Triple
	stats := &LubyStats{}
	priorities := make([]uint64, n)
	rows := rowWriter{ix: ix}
	var row []int32
	for phase := 1; activeCount > 0; phase++ {
		if phase > maxPhases {
			return nil, stats, fmt.Errorf("%w: %d phases, %d triples still active", ErrTooManyPhases, maxPhases, activeCount)
		}
		stats.Phases = phase
		// Bid round: every active triple draws a priority.
		for id := 0; id < n; id++ {
			if active[id] {
				priorities[id] = rng.Uint64()
			}
		}
		// Join round: local minima join; (priority, id) breaks ties.
		var winners []int32
		for e := int32(0); int(e) < ix.h.M(); e++ {
			lo, hi := ix.edgeOffset[e], ix.edgeOffset[e+1]
			if !slices.Contains(active[lo:hi], true) {
				continue
			}
			rows.reset(e)
			for id := lo; id < hi; id++ {
				if !active[id] {
					continue
				}
				row = rows.appendRow(row[:0], (id-lo)/ix.k, (id-lo)%ix.k+1)
				win := true
				for _, u := range row {
					if active[u] && less(priorities[u], u, priorities[id], id) {
						win = false
						break
					}
				}
				if win {
					winners = append(winners, id)
				}
			}
		}
		// Winners and their neighbourhoods retire.
		for _, id := range winners {
			if !active[id] {
				continue // a neighbour of an earlier winner this phase? impossible, but stay safe
			}
			t, err := ix.TripleOf(id)
			if err != nil {
				return nil, stats, err
			}
			out = append(out, t)
			active[id] = false
			activeCount--
			rows.reset(t.Edge)
			row = rows.appendRow(row[:0], (id-ix.edgeOffset[t.Edge])/ix.k, t.Color)
			for _, u := range row {
				if active[u] {
					active[u] = false
					activeCount--
				}
			}
		}
	}
	stats.VirtualRounds = 2 * stats.Phases
	stats.HostRounds = stats.VirtualRounds * HostDilation
	return out, stats, nil
}

// less orders (priority, id) pairs lexicographically.
func less(p1 uint64, id1 int32, p2 uint64, id2 int32) bool {
	if p1 != p2 {
		return p1 < p2
	}
	return id1 < id2
}

// bitsLen returns ceil(log2(n+1)), a crude log for phase budgets.
func bitsLen(n int) int {
	l := 0
	for v := n; v > 0; v >>= 1 {
		l++
	}
	return l
}

// LocalResult is the outcome of the distributed randomized reduction:
// the reduction's Result plus its LOCAL-round accounting.
type LocalResult struct {
	Result
	// VirtualRounds sums the G_k rounds over all phases.
	VirtualRounds int
	// HostRounds sums the simulated H-incidence rounds over all phases.
	HostRounds int
}

// ReduceLocalRandomized is the fully distributed (LOCAL-model,
// randomized) variant of the Theorem 1.1 pipeline: Reduce's phase loop
// with each phase's independent set computed as a maximal independent
// set of the implicit conflict graph by Luby's algorithm simulated on H
// (phase i runs VirtualLubyTriples with seed seed+i). An MIS of G_k is an
// independent set, so Lemma 2.1(b) applies and every phase removes at
// least one edge; unlike the SLOCAL λ-oracle pipeline this randomized
// variant carries no polylog-phase guarantee (the paper's point: a LOCAL
// MIS is *not* known to give a MaxIS approximation), and the phase count
// is an empirical observation the experiments record.
// A non-nil ctx cancels cooperatively between phases.
func ReduceLocalRandomized(ctx context.Context, h *hypergraph.Hypergraph, k int, seed int64) (*LocalResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadK, k)
	}
	var virtual, host int
	opts := Options{K: k, Engine: engine.Options{Ctx: ctx}}
	res, err := reduce(h, opts, func(ix *Index, phase int, _ obs.Span) ([]Triple, int, error) {
		triples, stats, err := VirtualLubyTriples(ix, seed+int64(phase), 0)
		if err != nil {
			return nil, 0, err
		}
		virtual += stats.VirtualRounds
		host += stats.HostRounds
		return triples, -1, nil
	})
	if err != nil {
		return nil, err
	}
	return &LocalResult{Result: *res, VirtualRounds: virtual, HostRounds: host}, nil
}
