package obs

// trace.go is the per-solve span tracer: one Trace per request (or job)
// with flat, preallocated span storage, so recording a span on the hot
// path costs a mutex hop and zero allocations. Spans carry the
// reduction-specific attributes the phase loop produces — phase index,
// conflict-graph dimensions, oracle name, independent-set size and
// weight — and snapshots render the flat array back into the nested
// root/children JSON that /v1/traces and ?trace=1 expose. All Trace and
// Span methods are nil-safe no-ops, which is what lets the solver thread
// tracing through unconditionally: untraced calls pay one context lookup
// and nothing else.

import (
	"context"
	"sync"
	"time"
)

// defaultTraceSpans is the per-trace span capacity when NewTrace is
// asked for none: enough for the fixed pipeline spans plus the O(log n)
// phase spans of any realistic reduction.
const defaultTraceSpans = 192

// span is one recorded interval, stored flat; parent indexes the
// enclosing span (-1 = child of the root).
type span struct {
	name   string
	parent int32
	start  time.Time
	dur    time.Duration

	phase    int
	n, m     int
	oracle   string
	isSize   int
	isWeight int64
	detail   string
}

// Trace is one request's span collection. Construct with NewTrace,
// record through Start/Span.Child, close with Finish, and render with
// Snapshot. A nil *Trace is a valid no-op receiver. Safe for concurrent
// use; span storage is fixed at construction and spans past the capacity
// are counted as dropped rather than grown.
type Trace struct {
	mu        sync.Mutex
	op        string
	requestID string
	start     time.Time
	end       time.Time
	spans     []span
	dropped   int
}

// NewTrace starts a trace for one operation (the root span's name) tagged
// with a request id ("" when none). maxSpans bounds the flat span store;
// <= 0 selects the default.
func NewTrace(op, requestID string, maxSpans ...int) *Trace {
	capacity := defaultTraceSpans
	if len(maxSpans) > 0 && maxSpans[0] > 0 {
		capacity = maxSpans[0]
	}
	return &Trace{op: op, requestID: requestID, start: time.Now(), spans: make([]span, 0, capacity)}
}

// Reset rewinds the trace for reuse under a new operation and request id
// without reallocating span storage (the traced-path benchmarks lean on
// this).
func (t *Trace) Reset(op, requestID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.requestID = requestID
	t.start = time.Now()
	t.end = time.Time{}
	t.spans = t.spans[:0]
	t.dropped = 0
	t.mu.Unlock()
}

// tracePool recycles traces between solves: a trace preallocates its
// whole span store (defaultTraceSpans spans of about 128 B each), so
// steady state reuses one instead of paying that allocation per request
// or job run.
var tracePool = sync.Pool{New: func() any { return NewTrace("", "") }}

// LeaseTrace returns a pooled trace reset for op and requestID. Hand it
// back with ReleaseTrace once its snapshot is taken: snapshots are
// copies, so they outlive the trace's reuse.
func LeaseTrace(op, requestID string) *Trace {
	t := tracePool.Get().(*Trace)
	t.Reset(op, requestID)
	return t
}

// ReleaseTrace returns a leased trace to the pool; the caller must not
// use it afterwards. A nil trace is ignored.
func ReleaseTrace(t *Trace) {
	if t != nil {
		tracePool.Put(t)
	}
}

// RequestID returns the trace's request id.
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requestID
}

// Finish closes the root span. Idempotent; Snapshot on an unfinished
// trace uses the current time instead.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	t.mu.Unlock()
}

// Span is a value handle onto one recorded span. The zero Span (and any
// handle from a nil Trace or a saturated one) no-ops, so callers never
// branch on whether tracing is live.
type Span struct {
	t *Trace
	i int32
}

// Start opens a span directly under the root.
func (t *Trace) Start(name string) Span { return t.startSpan(name, -1) }

// Child opens a span nested under sp.
func (sp Span) Child(name string) Span {
	if sp.t == nil {
		return Span{}
	}
	return sp.t.startSpan(name, sp.i)
}

// startSpan appends into the preallocated store; at capacity the span is
// dropped (counted) instead of grown, keeping recording allocation-free.
func (t *Trace) startSpan(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		t.mu.Unlock()
		return Span{}
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.mu.Unlock()
	return Span{t: t, i: i}
}

// End closes the span. Idempotent; a span never ended (an error unwound
// past it) is clamped to the trace end at snapshot time.
func (sp Span) End() {
	if sp.t == nil {
		return
	}
	sp.t.mu.Lock()
	s := &sp.t.spans[sp.i]
	if s.dur == 0 {
		s.dur = time.Since(s.start)
	}
	sp.t.mu.Unlock()
}

// set mutates the span's record under the trace lock.
func (sp Span) set(f func(*span)) {
	if sp.t == nil {
		return
	}
	sp.t.mu.Lock()
	f(&sp.t.spans[sp.i])
	sp.t.mu.Unlock()
}

// SetPhase tags the span with its 1-based reduction phase index.
func (sp Span) SetPhase(phase int) { sp.set(func(s *span) { s.phase = phase }) }

// SetDims tags the span with instance or conflict-graph dimensions
// (n vertices, m edges; m = -1 means "not materialised").
func (sp Span) SetDims(n, m int) { sp.set(func(s *span) { s.n, s.m = n, m }) }

// SetOracle tags the span with the oracle or mode name that solved it.
func (sp Span) SetOracle(name string) { sp.set(func(s *span) { s.oracle = name }) }

// SetIS tags the span with the phase's independent-set size and weight.
func (sp Span) SetIS(size int, weight int64) {
	sp.set(func(s *span) { s.isSize, s.isWeight = size, weight })
}

// SetDetail tags the span with a free-form disposition ("hit", "miss").
func (sp Span) SetDetail(d string) { sp.set(func(s *span) { s.detail = d }) }

// SpanSnapshot is the JSON rendering of one span, nested.
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartUS is the span's offset from the trace start, microseconds.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`

	Phase    int    `json:"phase,omitempty"`
	N        int    `json:"n,omitempty"`
	M        int    `json:"m,omitempty"`
	Oracle   string `json:"oracle,omitempty"`
	ISSize   int    `json:"is_size,omitempty"`
	ISWeight int64  `json:"is_weight,omitempty"`
	Detail   string `json:"detail,omitempty"`

	Children []SpanSnapshot `json:"children,omitempty"`
}

// TraceSnapshot is the JSON rendering of a whole trace: the root span
// (Op, the full duration) plus its nested children. Snapshots are
// immutable — the ring buffer and the ?trace=1 responses share them
// freely.
type TraceSnapshot struct {
	Op        string    `json:"op"`
	RequestID string    `json:"request_id,omitempty"`
	Start     time.Time `json:"start"`
	DurUS     int64     `json:"dur_us"`
	// Dropped counts spans lost to the capacity bound.
	Dropped int            `json:"dropped,omitempty"`
	Spans   []SpanSnapshot `json:"spans,omitempty"`
}

// Snapshot renders the trace. Unended spans are clamped to the trace
// end, so an error that unwound mid-span still yields a consistent tree.
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if end.IsZero() {
		end = time.Now()
	}
	snap := &TraceSnapshot{
		Op:        t.op,
		RequestID: t.requestID,
		Start:     t.start,
		DurUS:     end.Sub(t.start).Microseconds(),
		Dropped:   t.dropped,
	}
	if len(t.spans) == 0 {
		return snap
	}
	// Flat spans → nested snapshots. Children always follow their parent
	// in the flat array (spans open in call order), so one forward pass
	// with an index map suffices.
	nodes := make([]SpanSnapshot, len(t.spans))
	for i, s := range t.spans {
		dur := s.dur
		if dur == 0 {
			if dur = end.Sub(s.start); dur < 0 {
				dur = 0
			}
		}
		nodes[i] = SpanSnapshot{
			Name:     s.name,
			StartUS:  s.start.Sub(t.start).Microseconds(),
			DurUS:    dur.Microseconds(),
			Phase:    s.phase,
			N:        s.n,
			M:        s.m,
			Oracle:   s.oracle,
			ISSize:   s.isSize,
			ISWeight: s.isWeight,
			Detail:   s.detail,
		}
	}
	// Attach bottom-up: walking backwards, each span lands in its parent
	// after its own children are already attached.
	for i := len(t.spans) - 1; i >= 0; i-- {
		p := t.spans[i].parent
		if p < 0 {
			continue
		}
		nodes[p].Children = append([]SpanSnapshot{nodes[i]}, nodes[p].Children...)
	}
	for i, s := range t.spans {
		if s.parent < 0 {
			snap.Spans = append(snap.Spans, nodes[i])
		}
	}
	return snap
}

// Ring is a bounded in-memory buffer of finished trace snapshots — what
// GET /v1/traces serves. Pushing overwrites the oldest entry; snapshots
// are immutable so readers never race writers.
type Ring struct {
	mu    sync.Mutex
	buf   []*TraceSnapshot
	next  int
	total uint64
}

// NewRing builds a ring holding the last n traces (n < 1 selects 128).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 128
	}
	return &Ring{buf: make([]*TraceSnapshot, n)}
}

// Push records one finished trace (nil snapshots and nil rings no-op).
func (r *Ring) Push(s *TraceSnapshot) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns how many traces have ever been pushed.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns up to limit retained traces, newest first (limit <= 0
// returns everything retained).
func (r *Ring) Snapshot(limit int) []*TraceSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]*TraceSnapshot, 0, limit)
	for i := 1; i <= n && len(out) < limit; i++ {
		s := r.buf[(r.next-i+n)%n]
		if s == nil {
			break
		}
		out = append(out, s)
	}
	return out
}

// traceCtxKey keys the active trace in a context.
type traceCtxKey struct{}

// ContextWithTrace attaches t to ctx; the solver and the reduction core
// pick it up through TraceFrom.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, nil when there is none
// (or ctx itself is nil). The nil result is a valid no-op receiver.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
