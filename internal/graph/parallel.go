package graph

// parallel.go implements the sharded CSR assembly path (DESIGN.md,
// "Execution engine"). Edge emission is partitioned across workers, each
// appending into a private per-shard buffer; the shards are then merged by
// the two-pass assembler without locks:
//
//	pass 1  per-shard degree counts              (parallel over shards)
//	merge   global prefix sum + per-shard cursor (serial, O(W·n))
//	pass 2  scatter into disjoint cursor ranges  (parallel over shards)
//	finish  counting transpose + dedupe          (serial)
//	compact copy the deduped lists               (parallel over node ranges)
//
// The merge step assigns every (shard, node) pair its own half-open slice
// of the targets array, so the scatter needs no atomics: shard w writes
// node v's entries at cursor[w][v]..cursor[w][v]+deg_w(v), ranges that are
// disjoint by construction. The finish step sorts every list without a
// comparison sort (see transposeScatter). The final adjacency is sorted
// and duplicate free, so the assembled CSR is identical regardless of
// shard count or emission order — the property the equivalence tests
// assert.

import (
	"errors"
	"fmt"
	"slices"

	"pslocal/internal/engine"
)

// ShardedBuilder accumulates edges into per-shard buffers so multiple
// workers can emit concurrently without synchronisation. Distinct shards
// may be used from distinct goroutines at the same time; a single shard is
// not itself concurrency safe.
type ShardedBuilder struct {
	n      int
	shards []Builder
}

// NewShardedBuilder returns a builder for a graph on n nodes with the given
// number of independent emission shards (at least 1).
func NewShardedBuilder(n, shards int) *ShardedBuilder {
	if shards < 1 {
		shards = 1
	}
	sb := &ShardedBuilder{n: n, shards: make([]Builder, shards)}
	for i := range sb.shards {
		sb.shards[i].n = n
	}
	return sb
}

// NumShards returns the number of emission shards.
func (sb *ShardedBuilder) NumShards() int { return len(sb.shards) }

// Shard returns shard i's Builder. Each shard accepts AddEdge and
// EdgeCapacityHint exactly like a standalone Builder; errors are deferred
// to Build.
func (sb *ShardedBuilder) Shard(i int) *Builder { return &sb.shards[i] }

// Build assembles the graph serially (one merge worker).
func (sb *ShardedBuilder) Build() (*Graph, error) {
	return sb.ParallelBuild(engine.Options{Workers: 1})
}

// ParallelBuild assembles the graph on opts' worker pool. The result is
// byte-for-byte identical to the serial Build of the same edge multiset.
func (sb *ShardedBuilder) ParallelBuild(opts engine.Options) (*Graph, error) {
	shards := make([]*Builder, len(sb.shards))
	for i := range sb.shards {
		shards[i] = &sb.shards[i]
	}
	return assembleCSR(sb.n, shards, opts)
}

// assembleCSR is the two-pass CSR assembler shared by Builder.Build (one
// shard, one worker) and ShardedBuilder.ParallelBuild.
func assembleCSR(n int, shards []*Builder, opts engine.Options) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeSize, n)
	}
	var errs []error
	var weights []int64
	for _, sh := range shards {
		errs = append(errs, sh.errs...)
		if sh.badWeightLen {
			errs = append(errs, fmt.Errorf("%w: SetWeights vector for %d nodes", ErrWeightLength, n))
		}
		if sh.weights != nil {
			if weights != nil {
				errs = append(errs, fmt.Errorf("graph: weights set on more than one shard"))
			}
			weights = sh.weights
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	weights, werr := normalizeWeights(n, weights)
	if werr != nil {
		return nil, werr
	}
	if err := opts.Err(); err != nil {
		return nil, err
	}
	w := len(shards)

	// Pass 1: per-shard degree counts, each into a private array.
	degs := make([][]int32, w)
	err := opts.ForEachShard(w, func(_ int, s engine.Shard) error {
		for i := s.Lo; i < s.Hi; i++ {
			sh := shards[i]
			d := make([]int32, n)
			for j := range sh.us {
				d[sh.us[j]]++
				d[sh.vs[j]]++
			}
			degs[i] = d
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}

	// Merge: global offsets by prefix sum, rewriting each degs[w][v] in
	// place into shard w's private write cursor for node v. The cursor
	// ranges tile targets exactly, which is what makes pass 2 lock free.
	offsets := make([]int32, n+1)
	total := int32(0)
	for v := 0; v < n; v++ {
		offsets[v] = total
		for i := 0; i < w; i++ {
			c := degs[i][v]
			degs[i][v] = total
			total += c
		}
	}
	offsets[n] = total

	// Pass 2: scatter, each shard through its own cursors.
	targets := make([]int32, total)
	err = opts.ForEachShard(w, func(_ int, s engine.Shard) error {
		for i := s.Lo; i < s.Hi; i++ {
			sh, cur := shards[i], degs[i]
			for j := range sh.us {
				u, v := sh.us[j], sh.vs[j]
				targets[cur[u]] = v
				cur[u]++
				targets[cur[v]] = u
				cur[v]++
			}
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}

	// Finish: a counting transpose sorts every list and drops repeated
	// edges on the way, a serial prefix sum over the deduped lengths
	// gives the final offsets, and a parallel compaction copies the lists
	// into the final targets array.
	sorted, end := transposeScatter(n, offsets, targets)
	if err := opts.Err(); err != nil {
		return nil, err
	}
	newOffsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		newOffsets[v+1] = newOffsets[v] + end[v] - offsets[v]
	}
	if newOffsets[n] == total {
		// No repeats anywhere: the transpose is already final.
		return &Graph{offsets: offsets, targets: sorted, weights: weights}, nil
	}
	newTargets := make([]int32, newOffsets[n])
	err = opts.ForEachShard(n, func(_ int, s engine.Shard) error {
		for v := s.Lo; v < s.Hi; v++ {
			copy(newTargets[newOffsets[v]:], sorted[offsets[v]:end[v]])
		}
		return opts.Err()
	})
	if err != nil {
		return nil, err
	}
	return &Graph{offsets: newOffsets, targets: newTargets, weights: weights}, nil
}

// transposeScatter returns the transpose of the symmetric scatter and
// the end of every transposed list. Source nodes are visited in
// ascending order and each is appended to the lists of its scattered
// neighbours, so every list comes out sorted, with the copies of a
// repeated edge arriving back to back; all but the first are dropped,
// leaving node v's list at sorted[offsets[v]:end[v]]. The scatter holds
// both orientations of every edge, so node v's transposed list is its
// scattered multiset and fits the same offsets.
//
// The transpose is serial: it is bound by memory traffic, and running
// it over per-worker source ranges measured no faster on two cores.
func transposeScatter(n int, offsets, targets []int32) (sorted, end []int32) {
	sorted = make([]int32, len(targets))
	end = slices.Clone(offsets[:n])
	for u := int32(0); u < int32(n); u++ {
		for _, x := range targets[offsets[u]:offsets[u+1]] {
			if c := end[x]; c == offsets[x] || sorted[c-1] != u {
				sorted[c] = u
				end[x] = c + 1
			}
		}
	}
	return sorted, end
}
