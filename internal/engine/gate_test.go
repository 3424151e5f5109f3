package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestGateBoundsAdmission(t *testing.T) {
	g := NewGate(2)
	if g.Capacity() != 2 {
		t.Fatalf("Capacity = %d, want 2", g.Capacity())
	}
	for i := 0; i < 2; i++ {
		if err := g.Acquire(nil); err != nil {
			t.Fatalf("Acquire %d: %v", i+1, err)
		}
	}
	// At capacity a third Acquire waits until its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third Acquire = %v, want deadline exceeded at capacity", err)
	}
	if g.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", g.InUse())
	}
	g.Release()
	if err := g.Acquire(nil); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	g.Release()
	g.Release()
	if g.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", g.InUse())
	}
}

func TestGateAcquireHonoursCancellation(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on a full gate = %v, want deadline exceeded", err)
	}
	// A pre-cancelled context must not consume a free slot.
	g.Release()
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if err := g.Acquire(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire with cancelled ctx = %v, want canceled", err)
	}
	if g.InUse() != 0 {
		t.Fatalf("InUse = %d after failed acquire, want 0", g.InUse())
	}
}

func TestGateReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release on an empty gate should panic")
		}
	}()
	NewGate(1).Release()
}

func TestGateDefaultCapacity(t *testing.T) {
	if got, want := NewGate(0).Capacity(), Parallel().WorkerCount(); got != want {
		t.Fatalf("NewGate(0).Capacity = %d, want GOMAXPROCS %d", got, want)
	}
}
