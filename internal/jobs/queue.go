package jobs

// queue.go implements the bounded priority FIFO queue the worker pool
// pops from: one lane per Priority, highest lane first, strict FIFO
// within a lane, one total capacity bound across lanes. Cancellation of a
// queued job removes it eagerly (remove), so a cancelled job never
// reaches a worker through the queue; the pop path still re-checks the
// job state as a belt-and-braces guard.

import "sync"

// queue is the bounded priority FIFO. All methods are safe for
// concurrent use; pop blocks until an item or close.
type queue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	lanes    [numPriorities][]*job
	n        int
	cap      int
	closed   bool
}

// newQueue returns a queue bounded to capacity items across all lanes.
func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// push appends j to its priority lane, reporting ErrQueueFull at the
// bound and ErrClosed after close.
func (q *queue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.n >= q.cap {
		return ErrQueueFull
	}
	lane := j.info.Priority
	if lane < 0 || lane >= numPriorities {
		lane = PriorityNormal
	}
	q.lanes[lane] = append(q.lanes[lane], j)
	q.n++
	q.nonEmpty.Signal()
	return nil
}

// pop removes and returns the oldest job of the highest non-empty lane,
// blocking while the queue is empty. ok is false once the queue is
// closed.
func (q *queue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nonEmpty.Wait()
	}
	if q.closed {
		return nil, false
	}
	for lane := numPriorities - 1; lane >= 0; lane-- {
		if len(q.lanes[lane]) == 0 {
			continue
		}
		j = q.lanes[lane][0]
		q.lanes[lane][0] = nil // release the reference behind the head
		q.lanes[lane] = q.lanes[lane][1:]
		q.n--
		return j, true
	}
	// n > 0 with all lanes empty cannot happen; fail closed.
	panic("jobs: queue accounting out of sync")
}

// remove deletes j from its lane, reporting whether it was still queued
// (false means a worker already popped it).
func (q *queue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	lane := j.info.Priority
	if lane < 0 || lane >= numPriorities {
		lane = PriorityNormal
	}
	for i, queued := range q.lanes[lane] {
		if queued == j {
			q.lanes[lane] = append(q.lanes[lane][:i], q.lanes[lane][i+1:]...)
			q.n--
			return true
		}
	}
	return false
}

// depth returns the number of queued items.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// close wakes every blocked pop; subsequent pushes fail with ErrClosed
// and pops return ok=false immediately. The items still queued are
// dropped, so depth reads 0: their jobs stay queued in the registry
// until Close resolves them.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.lanes = [numPriorities][]*job{}
	q.n = 0
	q.nonEmpty.Broadcast()
}
