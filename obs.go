package pslocal

// obs.go re-exports the observability substrate (internal/obs): a
// dependency-free metrics registry with a Prometheus text-format
// exposition (what cfserve and cfgate serve as GET /metrics), a
// per-solve span tracer threaded through Solver and the reduction core
// via the context, and the request-id propagation contract the cluster
// uses to correlate one request across gateway, backend and job store.
//
//	reg := pslocal.NewMetricsRegistry()
//	solves := reg.Counter("pslocal_solves_total", "Solves.",
//		pslocal.MetricsLabel{Key: "endpoint", Value: "reduce"})
//	http.Handle("GET /metrics", reg.Handler())
//
//	tr := pslocal.NewTrace("reduce", requestID)
//	ctx = pslocal.ContextWithTrace(ctx, tr)
//	res, inst, err := sv.SolveReader(ctx, body, format) // phases recorded, or one answer span on a stored answer
//	tr.Finish()
//	snapshot := tr.Snapshot() // nested spans, JSON-ready
//
// All trace operations are nil-safe no-ops, so instrumented code paths
// cost one context lookup when tracing is off; span recording on a live
// trace allocates nothing (the cache-hit alloc gate covers it).

import "pslocal/internal/obs"

type (
	// MetricsRegistry collects metric families and renders them in the
	// Prometheus text exposition format; construct with
	// NewMetricsRegistry. Safe for concurrent use.
	MetricsRegistry = obs.Registry
	// MetricsCounter is a monotonically increasing counter handle.
	MetricsCounter = obs.Counter
	// MetricsGauge is a set-to-current-value gauge handle.
	MetricsGauge = obs.Gauge
	// MetricsHistogram is a fixed log2 latency histogram over
	// microseconds; GET /metrics renders it as a Prometheus histogram.
	MetricsHistogram = obs.Histogram
	// MetricsLabel is one metric label pair.
	MetricsLabel = obs.Label

	// Trace is one request's (or job's) span collection; a nil *Trace is
	// a valid no-op receiver.
	Trace = obs.Trace
	// TraceSpan is a value handle onto one recorded span; the zero value
	// no-ops.
	TraceSpan = obs.Span
	// TraceSnapshot is the nested JSON rendering of a finished trace.
	TraceSnapshot = obs.TraceSnapshot
	// TraceSpanSnapshot is one span within a TraceSnapshot.
	TraceSpanSnapshot = obs.SpanSnapshot
	// TraceRing is a bounded in-memory buffer of finished trace
	// snapshots — what GET /v1/traces serves.
	TraceRing = obs.Ring
)

// RequestIDHeader carries the correlation id across the cluster
// (X-Pslocal-Request-Id): cfgate mints or validates it, forwards it on
// every proxy attempt, and cfserve echoes it and stamps it on traces and
// job metadata.
const RequestIDHeader = obs.RequestIDHeader

// NewMetricsRegistry constructs an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTrace starts a trace for one operation tagged with a request id
// ("" when none); close with Finish and render with Snapshot.
func NewTrace(op, requestID string, maxSpans ...int) *Trace {
	return obs.NewTrace(op, requestID, maxSpans...)
}

// NewTraceRing builds a ring retaining the last n trace snapshots
// (n < 1 selects 128).
func NewTraceRing(n int) *TraceRing { return obs.NewRing(n) }

// ContextWithTrace attaches a trace to ctx; Solver and the reduction
// core record spans onto it.
var ContextWithTrace = obs.ContextWithTrace

// TraceFromContext returns the trace attached to ctx (nil when none; the
// nil result is a valid no-op receiver).
var TraceFromContext = obs.TraceFrom

// NewRequestID mints a fresh random request id (16 hex digits).
var NewRequestID = obs.NewRequestID

// ValidRequestID reports whether a caller-supplied request id is
// acceptable: 8 to 64 characters of [0-9A-Za-z._-].
var ValidRequestID = obs.ValidRequestID

// EnsureRequestID returns its argument when it is a valid request id and
// mints a fresh one otherwise — the gateway's trust boundary.
var EnsureRequestID = obs.EnsureRequestID

// ContextWithRequestID attaches a request id to ctx.
var ContextWithRequestID = obs.ContextWithRequestID

// RequestIDFromContext returns the request id attached to ctx ("" when
// none).
var RequestIDFromContext = obs.RequestIDFrom
