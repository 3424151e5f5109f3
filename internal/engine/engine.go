// Package engine provides the shared execution-options layer of the
// repository: a single Options value — worker-pool width plus cancellation
// context — threaded through conflict-graph construction (core.BuildOpts),
// the Theorem 1.1 reduction (core.Reduce), the MaxIS oracle suite, and the
// experiment harness. The width fans out the oracle portfolio and
// Solver.SolveBatch; G_k construction is serial and reads only the
// context, between hyperedges. DESIGN.md, "Execution engine", records the
// design.
//
// The package deliberately has no dependencies inside the repository so
// every layer (graph, core, maxis, experiments, cmd) can import it.
package engine

import (
	"context"
	"runtime"
	"sync"
)

// Options configures parallel execution. The zero value selects the serial
// fast path on one worker with no cancellation, so existing call sites keep
// their exact previous behaviour when they pass Options{}.
type Options struct {
	// Workers is the worker-pool width of ForEachShard (the oracle
	// portfolio, batch solves); it does not widen G_k construction, which
	// is serial. Negative values select runtime.GOMAXPROCS(0), i.e. "as
	// wide as the hardware allows" (use Parallel()). Zero and one are the
	// serial fast path: shard loops run inline on the calling goroutine
	// with no pool.
	Workers int
	// Ctx cancels long-running work between shards, between the
	// hyperedges of a G_k build and between reduction phases; nil means
	// context.Background() (never cancelled).
	Ctx context.Context
}

// Parallel returns Options selecting runtime.GOMAXPROCS(0) workers.
func Parallel() Options { return Options{Workers: -1} }

// FromWorkersFlag maps the CLI -workers convention shared by the cmds
// onto Options: 0 means "as wide as the hardware" (Parallel()), any
// other value is the literal pool width.
func FromWorkersFlag(workers int) Options {
	if workers == 0 {
		return Parallel()
	}
	return Options{Workers: workers}
}

// WorkerCount resolves Workers: itself when positive, 1 when zero (the
// serial zero value), GOMAXPROCS when negative.
func (o Options) WorkerCount() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.Workers == 0:
		return 1
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// Context resolves Ctx, defaulting to context.Background().
func (o Options) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Err reports the cancellation state of the configured context; it is the
// cheap check the shard and construction loops make between steps.
func (o Options) Err() error {
	if o.Ctx != nil {
		return o.Ctx.Err()
	}
	return nil
}

// Serial reports whether execution resolves to a single worker.
func (o Options) Serial() bool { return o.WorkerCount() <= 1 }

// Shard is a half-open index range [Lo, Hi).
type Shard struct {
	Lo, Hi int
}

// Len returns Hi - Lo.
func (s Shard) Len() int { return s.Hi - s.Lo }

// Shards partitions [0, n) into at most `workers` contiguous near-equal
// ranges (sizes differ by at most one, larger shards first). It returns nil
// when n <= 0, and fewer than `workers` shards when n < workers so no shard
// is empty.
func Shards(n, workers int) []Shard {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	out := make([]Shard, workers)
	size, rem := n/workers, n%workers
	lo := 0
	for i := range out {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = Shard{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// ForEachShard partitions [0, n) with Shards(n, o.WorkerCount()) and runs fn
// once per shard, concurrently on the pool (inline when serial). The shard
// index passed to fn is dense in [0, numShards) and each index runs exactly
// once, so fn may index per-shard state without locking. The first non-nil
// error wins; a cancelled context surfaces as its error and stops unstarted
// shards from doing work (fn is still invoked but should observe o.Err()).
func (o Options) ForEachShard(n int, fn func(shard int, s Shard) error) error {
	shards := Shards(n, o.WorkerCount())
	if len(shards) == 0 {
		return o.Err()
	}
	if len(shards) == 1 {
		if err := o.Err(); err != nil {
			return err
		}
		return fn(0, shards[0])
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s Shard) {
			defer wg.Done()
			if err := o.Err(); err != nil {
				setErr(err)
				return
			}
			setErr(fn(i, s))
		}(i, s)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return o.Err()
}
