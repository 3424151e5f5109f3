package jobs

import (
	"errors"
	"testing"
	"time"
)

// qjob makes a registry-less job for queue-only tests.
func qjob(label string, p Priority) *job {
	return &job{info: Info{ID: label, Label: label, Priority: p, State: StateQueued}}
}

func TestQueueFIFOWithinLane(t *testing.T) {
	q := newQueue(8)
	for _, l := range []string{"a", "b", "c"} {
		if err := q.push(qjob(l, PriorityNormal)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"a", "b", "c"} {
		j, ok := q.pop()
		if !ok || j.info.Label != want {
			t.Fatalf("pop = %v/%v, want %s", j, ok, want)
		}
	}
}

func TestQueuePriorityLanes(t *testing.T) {
	q := newQueue(8)
	for _, j := range []*job{
		qjob("low1", PriorityLow),
		qjob("norm1", PriorityNormal),
		qjob("high1", PriorityHigh),
		qjob("high2", PriorityHigh),
		qjob("norm2", PriorityNormal),
	} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for range 5 {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		got = append(got, j.info.Label)
	}
	want := []string{"high1", "high2", "norm1", "norm2", "low1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueueBound(t *testing.T) {
	q := newQueue(2)
	if err := q.push(qjob("a", PriorityLow)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("b", PriorityHigh)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("c", PriorityHigh)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity push error = %v, want ErrQueueFull", err)
	}
	if q.depth() != 2 {
		t.Fatalf("depth = %d, want 2", q.depth())
	}
	// Popping frees capacity.
	if _, ok := q.pop(); !ok {
		t.Fatal("pop failed")
	}
	if err := q.push(qjob("c", PriorityHigh)); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(4)
	a, b := qjob("a", PriorityNormal), qjob("b", PriorityNormal)
	if err := q.push(a); err != nil {
		t.Fatal(err)
	}
	if err := q.push(b); err != nil {
		t.Fatal(err)
	}
	if !q.remove(a) {
		t.Fatal("remove of a queued job reported not found")
	}
	if q.remove(a) {
		t.Fatal("double remove reported found")
	}
	j, ok := q.pop()
	if !ok || j != b {
		t.Fatalf("pop after remove = %v, want b", j.info.Label)
	}
}

func TestQueuePopBlocksUntilPushOrClose(t *testing.T) {
	q := newQueue(4)
	got := make(chan *job, 1)
	go func() {
		j, ok := q.pop()
		if ok {
			got <- j
		} else {
			got <- nil
		}
	}()
	select {
	case <-got:
		t.Fatal("pop returned on an empty open queue")
	case <-time.After(20 * time.Millisecond):
	}
	if err := q.push(qjob("x", PriorityNormal)); err != nil {
		t.Fatal(err)
	}
	select {
	case j := <-got:
		if j == nil || j.info.Label != "x" {
			t.Fatalf("blocked pop woke with %v", j)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop never woke after push")
	}

	// Close wakes every blocked popper with ok=false.
	results := make(chan bool, 3)
	for range 3 {
		go func() {
			_, ok := q.pop()
			results <- ok
		}()
	}
	select {
	case <-results:
		t.Fatal("pop returned on an empty open queue")
	case <-time.After(20 * time.Millisecond):
	}
	q.close()
	for range 3 {
		if <-results {
			t.Error("pop returned an item after close")
		}
	}
	if err := q.push(qjob("y", PriorityNormal)); !errors.Is(err, ErrClosed) {
		t.Errorf("push after close error = %v, want ErrClosed", err)
	}

	// A closed queue pops nothing, even with items left in it.
	q = newQueue(4)
	if err := q.push(qjob("left", PriorityNormal)); err != nil {
		t.Fatal(err)
	}
	q.close()
	if j, ok := q.pop(); ok {
		t.Errorf("pop returned %q from a closed queue", j.info.Label)
	}
}
