package engine

// gate.go provides Gate, the bounded-admission primitive of the serving
// layer: the Solver (solver.New) holds one Gate sized by WithMaxInflight,
// which cfserve sets from its -max-inflight flag, and admits each solve
// through it, so a traffic burst queues at the gate (respecting
// per-request cancellation) instead of oversubscribing the worker pools
// that Options.ForEachShard fans out on.

import "context"

// Gate bounds the number of concurrently admitted tasks. The zero value
// is not usable; construct with NewGate.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most n tasks at once; n < 1 selects
// runtime.GOMAXPROCS(0) via Options' worker convention.
func NewGate(n int) *Gate {
	if n < 1 {
		n = Options{Workers: -1}.WorkerCount()
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning the
// context error in the latter case. A nil ctx never cancels.
func (g *Gate) Acquire(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire. Releasing more than was
// acquired is a programming error and panics.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("engine: Gate.Release without Acquire")
	}
}

// Capacity returns the admission bound.
func (g *Gate) Capacity() int { return cap(g.slots) }

// InUse returns the number of currently admitted tasks.
func (g *Gate) InUse() int { return len(g.slots) }
