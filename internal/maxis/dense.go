package maxis

// dense.go packs a conflict graph into word-parallel bitset rows — one
// contiguous uint64 backing array, row v occupying words [v·w, (v+1)·w) —
// so the hot oracle inner loops (greedy neighbour exclusion, exact
// candidate pruning) run as AND-NOT/popcount sweeps over 64 vertices per
// word instead of walking []int32 adjacency lists vertex by vertex.
//
// Packing is gated by a density cutoff: a row sweep costs O(n/64) words
// regardless of degree, so on sparse rows the CSR walk wins and the
// kernels fall back to it (DenseEligible reports false and the oracles
// keep their list paths). Every solve packs for itself into pooled
// scratch and returns the pack when it ends, so a steady-state dense
// solve allocates only its result. DESIGN.md ("Bitset kernels") records
// the layout and cutoff.

import (
	"slices"
	"sync"

	"pslocal/internal/graph"
)

// denseRatio is the density cutoff: rows are packed only when
// 2m·denseRatio ≥ n², i.e. the average degree is at least n/denseRatio.
// Below that the CSR walk touches fewer words than the packed sweep and
// sparse instances would regress.
const denseRatio = 16

// maxDenseWords caps the packed form's footprint (words, 8 bytes each) so
// a huge instance cannot balloon into an O(n²/8)-byte allocation: 1<<24
// words is 128 MiB, reached around n ≈ 32k.
const maxDenseWords = 1 << 24

// denseGraph is the packed adjacency: n rows of `words` uint64 each in
// one contiguous backing slice.
type denseGraph struct {
	n     int
	words int
	bits  bitset
}

// row returns v's adjacency as a bitset view into the backing array.
func (d *denseGraph) row(v int32) bitset {
	w := int(v) * d.words
	return d.bits[w : w+d.words : w+d.words]
}

// maxRetainedPackWords caps the pack a pooled denseGraph keeps between
// solves (1 MiB, reached around n ≈ 2,900); a one-off huge instance must
// not pin its pack in the pool forever.
const maxRetainedPackWords = 1 << 17

var densePool = sync.Pool{New: func() any { return new(denseGraph) }}

// packDense packs g into a pooled denseGraph whatever its density; the
// caller hands it back with releaseDense when its solve ends.
func packDense(g *graph.Graph) *denseGraph {
	n := g.N()
	words := (n + 63) / 64
	d := densePool.Get().(*denseGraph)
	d.n, d.words = n, words
	d.bits = resizeBits(d.bits, n*words)
	for v := 0; v < n; v++ {
		row := d.bits[v*words : (v+1)*words]
		g.ForEachNeighbor(int32(v), func(u int32) bool {
			row[u>>6] |= 1 << (uint(u) & 63)
			return true
		})
	}
	return d
}

// releaseDense returns d to the pool; neither d nor its rows may be used
// afterwards.
func releaseDense(d *denseGraph) {
	if cap(d.bits) > maxRetainedPackWords {
		d.bits = nil
	}
	densePool.Put(d)
}

// DenseEligible reports whether g clears the density cutoff and the
// memory cap, i.e. whether the greedy oracles solve it on the bitset
// kernels; they use the CSR walk otherwise.
func DenseEligible(g *graph.Graph) bool {
	n := g.N()
	if n < 2 {
		return false
	}
	words := (n + 63) / 64
	if n*words > maxDenseWords {
		return false
	}
	return 2*g.M()*denseRatio >= n*n
}

// kernelScratch holds the per-solve bitset state of the dense kernels;
// pooled so steady-state solves allocate nothing.
type kernelScratch struct {
	a, b, c bitset
	deg     []int32
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// grab returns pooled scratch with the three bitsets sized to `words`
// zeroed words and deg sized to n zeroed entries.
func grabKernelScratch(words, n int) *kernelScratch {
	s := kernelPool.Get().(*kernelScratch)
	s.a = resizeBits(s.a, words)
	s.b = resizeBits(s.b, words)
	s.c = resizeBits(s.c, words)
	if cap(s.deg) < n {
		s.deg = make([]int32, n)
	} else {
		s.deg = s.deg[:n]
		clear(s.deg)
	}
	return s
}

func releaseKernelScratch(s *kernelScratch) { kernelPool.Put(s) }

// resizeBits returns b with exactly n zeroed words, reallocating only
// when the capacity is insufficient.
func resizeBits(b bitset, n int) bitset {
	if cap(b) < n {
		return make(bitset, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// greedyOrderDense is the word-parallel twin of the GreedyOrder scan:
// vertex v joins when its row has no bit in common with the chosen set —
// an AND sweep with first-hit early exit instead of a per-neighbour CSR
// callback. The output is identical to the list scan for any order
// (asserted by the equivalence tests).
func greedyOrderDense(d *denseGraph, order []int32) []int32 {
	s := grabKernelScratch(d.words, 0)
	inSet := s.a
	var out []int32
	for _, v := range order {
		if !intersects(d.row(v), inSet) {
			inSet.set(v)
			out = append(out, v)
		}
	}
	releaseKernelScratch(s)
	slices.Sort(out)
	return out
}

// GreedyMinDegreeBitset selects a minimum-residual-degree vertex (ties to
// the smallest id), removes its closed neighbourhood with AND-NOT sweeps,
// and repeats — the Caro–Wei greedy on the packed adjacency. Ineligible
// graphs fall back to the list-based GreedyMinDegree, which meets the
// same bound.
func GreedyMinDegreeBitset(g *graph.Graph) []int32 {
	if !DenseEligible(g) {
		return GreedyMinDegree(g)
	}
	d := packDense(g)
	defer releaseDense(d)
	return greedyMinDegreeDense(d)
}

// greedyMinDegreeDense is the packed Caro–Wei greedy. alive tracks the
// residual graph; degrees start from row popcounts and are decremented as
// closed neighbourhoods leave. Selection scans the alive bits for the
// lexicographically smallest (degree, id) pair, so the kernel is fully
// deterministic — the property tests pin it against a list-based twin
// with the same tie-break.
func greedyMinDegreeDense(d *denseGraph) []int32 {
	s := grabKernelScratch(d.words, d.n)
	alive, removed, scratch, deg := s.a, s.b, s.c, s.deg
	for v := 0; v < d.n; v++ {
		alive.set(int32(v))
		deg[v] = int32(d.row(int32(v)).count())
	}
	var out []int32
	for {
		// Smallest (residual degree, id) among alive vertices.
		best, bestDeg := int32(-1), int32(0)
		alive.forEach(func(v int32) bool {
			if best < 0 || deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
			return true
		})
		if best < 0 {
			break
		}
		out = append(out, best)
		// removed = ({best} ∪ N(best)) ∩ alive, then alive &^= removed.
		andInto(removed, d.row(best), alive)
		removed.set(best)
		alive.andNotInPlace(removed)
		// Vertices adjacent to a removed vertex lose that residual degree.
		removed.forEach(func(u int32) bool {
			andInto(scratch, d.row(u), alive)
			scratch.forEach(func(w int32) bool {
				deg[w]--
				return true
			})
			return true
		})
	}
	releaseKernelScratch(s)
	slices.Sort(out)
	return out
}
