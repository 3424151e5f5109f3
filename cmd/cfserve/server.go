package main

// server.go implements the HTTP surface of the reduction service. Two
// POST endpoints expose the pipeline synchronously — /v1/reduce runs the
// Theorem 1.1 reduction on a hypergraph, /v1/maxis solves MaxIS on a
// graph — with the instance format, oracle selection, worker count and
// seed chosen per request through query parameters; the asynchronous
// /v1/jobs endpoints (jobs.go) run the same reductions through the job
// subsystem's queue instead of holding the connection open.
//
// Both endpoints are served through one shared pslocal.Solver: the server
// owns no cache or gate of its own. The base Solver (built in newServer)
// carries the server-wide limits — the parsed-instance cache and the
// bounded admission gate — and each request derives a per-call variant
// with Solver.With for its oracle, palette, seed and worker choices; the
// derived solvers share the base cache and gate. Solver errors map onto
// HTTP statuses via errors.Is over the pslocal error taxonomy, and every
// response verifies its own output through the facade verifiers before
// reporting verified=true.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pslocal"
)

// encodeBuf is one pooled response encoder: a reusable buffer with a
// json.Encoder permanently bound to it, so steady-state responses reuse
// both the encode buffer and the encoder instead of allocating fresh ones
// per request. Buffers that ballooned past maxRetainedEncodeBuf on a
// one-off giant response are dropped instead of pooled.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

const maxRetainedEncodeBuf = 1 << 20

var encodePool = sync.Pool{New: func() any {
	e := new(encodeBuf)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

func grabEncodeBuf() *encodeBuf {
	e := encodePool.Get().(*encodeBuf)
	e.buf.Reset()
	return e
}

func releaseEncodeBuf(e *encodeBuf) {
	if e.buf.Cap() <= maxRetainedEncodeBuf {
		encodePool.Put(e)
	}
}

// config carries the server-wide limits set by the flags in main.go.
type config struct {
	// maxWorkers caps the per-request worker count; < 1 selects GOMAXPROCS.
	maxWorkers int
	// maxInflight bounds concurrently running solves; < 1 selects GOMAXPROCS.
	maxInflight int
	// cacheEntries bounds the parsed-instance LRU.
	cacheEntries int
	// maxBodyBytes caps request bodies; <= 0 selects 64 MiB.
	maxBodyBytes int64
	// seed is the default oracle seed when a request carries none.
	seed int64
	// jobsDir is the persistent job store directory ("" = memory only).
	jobsDir string
	// jobWorkers is the job pool width; < 1 selects GOMAXPROCS.
	jobWorkers int
	// jobQueueCap bounds the job queue across lanes; < 1 selects 1024.
	jobQueueCap int
	// slow is the slow-request log threshold; 0 disables slow logging.
	slow time.Duration
	// traceRing bounds the retained trace snapshots; < 1 selects 128.
	traceRing int
	// logger receives structured request logs; nil selects slog.Default.
	logger *slog.Logger
}

// server is the HTTP handler plus its shared state.
type server struct {
	cfg    config
	solver *pslocal.Solver     // owns the instance cache and admission gate
	jobs   *pslocal.JobManager // owns the job queue, pool and store
	mux    *http.ServeMux
	start  time.Time

	// draining flips once (POST /drainz or SIGTERM) and never back:
	// /readyz answers 503 so load balancers stop sending, new solve and
	// job submissions are refused with 503 + Retry-After, and running
	// work finishes. Liveness (/healthz) stays 200 throughout — the
	// process is healthy, just leaving the pool.
	draining atomic.Bool

	// lastReadyProbe is the unix-nano time of the last /readyz request.
	// The SIGTERM path uses it to decide whether a load balancer is
	// routing on this node's readiness and deserves time to observe the
	// drain before the listener closes.
	lastReadyProbe atomic.Int64
	// drainEjected closes once drainEjectQuorum readiness probes have
	// answered 503 — by then cfgate's default prober has ejected the
	// node, so closing the listener no longer turns freshly routed
	// requests into connection-refused errors.
	drainEjected     chan struct{}
	drainEjectedOnce sync.Once
	drainProbes      atomic.Int64

	// met is the metrics surface GET /metrics serves; traces is the ring
	// GET /v1/traces serves (job runs push into the same ring through the
	// manager).
	met    *serverMetrics
	traces *pslocal.TraceRing
	logger *slog.Logger
}

// newServer wires the routes, resolves config defaults, and builds the
// shared Solver plus the job manager driving it. The error is the job
// store directory failing to materialize.
func newServer(cfg config) (*server, error) {
	if cfg.maxWorkers < 1 {
		cfg.maxWorkers = pslocal.ParallelEngine().WorkerCount()
	}
	if cfg.maxInflight < 1 {
		cfg.maxInflight = -1 // Solver convention: negative = GOMAXPROCS
	}
	if cfg.cacheEntries < 1 {
		cfg.cacheEntries = 128
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = 64 << 20
	}
	if cfg.logger == nil {
		cfg.logger = slog.Default()
	}
	s := &server{
		cfg:          cfg,
		drainEjected: make(chan struct{}),
		solver: pslocal.NewSolver(
			pslocal.WithCache(cfg.cacheEntries),
			pslocal.WithMaxInflight(cfg.maxInflight),
			pslocal.WithSeed(cfg.seed),
		),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		traces: pslocal.NewTraceRing(cfg.traceRing),
		logger: cfg.logger,
	}
	jm, err := pslocal.NewJobManager(pslocal.JobConfig{
		Solver:   s.solver, // jobs share the instance cache and admission gate
		Dir:      cfg.jobsDir,
		Workers:  cfg.jobWorkers,
		QueueCap: cfg.jobQueueCap,
		Traces:   s.traces, // job runs publish into the same trace ring
	})
	if err != nil {
		return nil, err
	}
	s.jobs = jm
	s.met = newServerMetrics(s.solver, s.jobs, cfg.maxWorkers)
	s.mux.HandleFunc("POST /v1/reduce", s.handleReduce)
	s.mux.HandleFunc("POST /v1/maxis", s.handleMaxIS)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /drainz", s.handleDrainz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.Handle("GET /metrics", s.met.reg.Handler())
	return s, nil
}

// readyProbedWithin reports whether /readyz was hit within d — the
// SIGTERM path's signal that a gateway is routing on this node's
// readiness. A node nobody probes has no router to inform and shuts
// down without waiting.
func (s *server) readyProbedWithin(d time.Duration) bool {
	last := s.lastReadyProbe.Load()
	return last != 0 && time.Since(time.Unix(0, last)) <= d
}

// Drain flips the server into draining (idempotently) and waits for
// running and queued jobs to finish or ctx to expire. The SIGTERM path
// in main.go calls it after http.Server.Shutdown has flushed in-flight
// requests.
func (s *server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.jobs.Drain(ctx)
}

// Close stops the job manager (queued jobs cancel, running jobs unwind
// cooperatively).
func (s *server) Close() {
	s.jobs.Close()
}

// ServeHTTP implements http.Handler. Every request gets a request id —
// a valid caller-supplied X-Pslocal-Request-Id survives (cfgate mints
// one when the client had none), anything else is replaced — echoed on
// the response and readable by handlers from r.Header. Requests no
// route matches — 404s and wrong-method 405s — go through a rewriting
// writer that turns the mux's plain-text error into the same JSON
// envelope every other error response uses.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	rid := pslocal.EnsureRequestID(r.Header.Get(pslocal.RequestIDHeader))
	r.Header.Set(pslocal.RequestIDHeader, rid)
	w.Header().Set(pslocal.RequestIDHeader, rid)
	if _, pattern := s.mux.Handler(r); pattern == "" {
		s.met.failures.Inc()
		s.mux.ServeHTTP(&jsonErrorRewriter{w: w}, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// jsonErrorRewriter wraps a ResponseWriter so the ServeMux's built-in
// plain-text 404/405 bodies come out as the service's JSON error
// envelope, preserving the status and the 405's Allow header.
type jsonErrorRewriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (j *jsonErrorRewriter) Header() http.Header { return j.w.Header() }

func (j *jsonErrorRewriter) WriteHeader(status int) {
	j.w.Header().Set("Content-Type", "application/json")
	j.w.WriteHeader(status)
}

func (j *jsonErrorRewriter) Write(p []byte) (int, error) {
	if !j.wrote {
		j.wrote = true
		body, err := json.Marshal(map[string]string{"error": strings.TrimSpace(string(p))})
		if err != nil {
			return 0, err
		}
		if _, err := j.w.Write(append(body, '\n')); err != nil {
			return 0, err
		}
	}
	// Report the caller's bytes as consumed either way: the envelope
	// replaces the text body rather than appending to it.
	return len(p), nil
}

// instanceInfo describes the parsed instance and its cache disposition in
// every response.
type instanceInfo struct {
	Kind     string `json:"kind"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Weighted bool   `json:"weighted,omitempty"`
	Cache    string `json:"cache"` // "hit" or "miss"
	Key      string `json:"key"`   // "sha256:" + first 16 hex digits
}

// describe maps the Solver's instance report onto the response schema.
func describe(inst *pslocal.InstanceInfo) instanceInfo {
	info := instanceInfo{
		Kind:     inst.Kind,
		N:        inst.N,
		M:        inst.M,
		Weighted: inst.Weighted(),
		Cache:    "miss",
	}
	// The key is empty only when the Solver runs cacheless, which this
	// server never configures — but do not let a future config change
	// panic the response path.
	if len(inst.Key) >= 16 {
		info.Key = "sha256:" + inst.Key[:16]
	}
	if inst.CacheHit {
		info.Cache = "hit"
	}
	return info
}

// reduceResponse is the /v1/reduce response body. Result is the
// graphio reduction-result document, so CLI -out files and service
// responses share one schema.
type reduceResponse struct {
	Instance  instanceInfo    `json:"instance"`
	Oracle    string          `json:"oracle"`
	Workers   int             `json:"workers"`
	Verified  bool            `json:"verified"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Result    json.RawMessage `json:"result"`
	// Trace is the per-phase span tree, embedded when the request asked
	// for it with ?trace=1.
	Trace *pslocal.TraceSnapshot `json:"trace,omitempty"`
}

// refuseDraining rejects new work on a draining server with 503 and a
// retry hint, reporting whether the request was refused. Reads (job
// status, lists, events, metrics) stay open so operators and the gateway
// can watch the drain finish.
func (s *server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	s.fail(w, http.StatusServiceUnavailable, errors.New("server draining"))
	return true
}

// handleReduce runs the Theorem 1.1 reduction on the posted hypergraph.
func (s *server) handleReduce(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	q := r.URL.Query()
	format, err := pslocal.ParseGraphFormat(q.Get("format"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	k, err := intParam(q.Get("k"), 3)
	if err != nil || k < 1 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad k parameter %q (want a positive integer)", q.Get("k")))
		return
	}
	workers, err := intParam(q.Get("workers"), 1)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad workers parameter %q", q.Get("workers")))
		return
	}
	workers = s.clampWorkers(workers)
	seed, err := int64Param(q.Get("seed"), s.cfg.seed)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad seed parameter %q", q.Get("seed")))
		return
	}
	oracleName := q.Get("oracle")
	if oracleName == "" {
		oracleName = "implicit"
	}

	sv := s.solver.With(
		pslocal.WithK(k),
		pslocal.WithWorkers(workers),
		pslocal.WithSeed(seed),
		pslocal.WithOracle(oracleName),
	)
	started := time.Now()
	// Every solve runs under a pooled trace: the snapshot lands in the
	// /v1/traces ring whether the solve succeeds or fails, and ?trace=1
	// embeds it in the response.
	tr := grabTrace("reduce", r.Header.Get(pslocal.RequestIDHeader))
	ctx := pslocal.ContextWithTrace(r.Context(), tr)
	// Admission (the shared gate) happens inside SolveReader before the
	// body is even read: parsing and CSR construction are exactly the
	// costs the gate exists to bound.
	res, inst, err := sv.SolveReader(ctx,
		http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes), format)
	if err != nil {
		s.finishTrace(tr)
		s.failSolve(w, err)
		return
	}
	verified := false
	if hg := inst.Hypergraph(); hg != nil {
		verified = pslocal.VerifyReduction(hg, res) == nil &&
			pslocal.VerifyConflictFreeMulti(hg, res.Multicoloring) == nil
	}

	// The result document lands in a pooled buffer too; the RawMessage
	// below aliases it, so it is released only after writeJSON has
	// serialised the response (the deferred release runs last).
	docBuf := grabEncodeBuf()
	defer releaseEncodeBuf(docBuf)
	if err := pslocal.WriteResult(&docBuf.buf, res); err != nil {
		s.finishTrace(tr)
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	snap := s.finishTrace(tr)
	elapsed := time.Since(started)
	s.met.reduces.Inc()
	s.met.observeSolve(s.met.reduce, elapsed, inst.CacheHit)
	s.logSlow(r, "reduce", elapsed)
	resp := reduceResponse{
		Instance:  describe(inst),
		Oracle:    oracleName,
		Workers:   workers,
		Verified:  verified,
		ElapsedMS: msSince(started),
		Result:    json.RawMessage(docBuf.buf.Bytes()),
	}
	if wantTrace(q.Get("trace")) {
		resp.Trace = snap
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// wantTrace interprets the ?trace= query parameter.
func wantTrace(v string) bool { return v == "1" || v == "true" }

// logSlow emits a structured warning for requests at or above the
// -slow-ms threshold (0 disables).
func (s *server) logSlow(r *http.Request, endpoint string, d time.Duration) {
	if s.cfg.slow <= 0 || d < s.cfg.slow {
		return
	}
	s.logger.Warn("slow request",
		"endpoint", endpoint,
		"dur_ms", float64(d.Microseconds())/1000,
		"request_id", r.Header.Get(pslocal.RequestIDHeader))
}

// maxisResponse is the /v1/maxis response body. Locality is present only
// for algorithm=carving.
type maxisResponse struct {
	Instance       instanceInfo `json:"instance"`
	Algorithm      string       `json:"algorithm"`
	Oracle         string       `json:"oracle,omitempty"`
	Workers        int          `json:"workers"`
	Size           int          `json:"size"`
	TotalWeight    int64        `json:"total_weight"`
	IndependentSet []int32      `json:"independent_set"`
	Verified       bool         `json:"verified"`
	Locality       int          `json:"locality,omitempty"`
	RadiusBound    int          `json:"radius_bound,omitempty"`
	ElapsedMS      float64      `json:"elapsed_ms"`
	// Trace is the per-phase span tree, embedded when the request asked
	// for it with ?trace=1.
	Trace *pslocal.TraceSnapshot `json:"trace,omitempty"`
}

// handleMaxIS solves MaxIS on the posted graph, either through a registry
// oracle (algorithm=oracle, the default) or the SLOCAL ball-carving
// (1+δ)-approximation (algorithm=carving, which reports its locality).
func (s *server) handleMaxIS(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	q := r.URL.Query()
	format, err := pslocal.ParseGraphFormat(q.Get("format"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	workers, err := intParam(q.Get("workers"), 1)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad workers parameter %q", q.Get("workers")))
		return
	}
	workers = s.clampWorkers(workers)
	seed, err := int64Param(q.Get("seed"), s.cfg.seed)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad seed parameter %q", q.Get("seed")))
		return
	}
	algorithm := q.Get("algorithm")
	if algorithm == "" {
		algorithm = "oracle"
	}
	opts := []pslocal.SolverOption{
		pslocal.WithWorkers(workers),
		pslocal.WithSeed(seed),
	}
	oracleName := ""
	switch algorithm {
	case "oracle":
		oracleName = q.Get("oracle")
		if oracleName == "" {
			oracleName = "greedy-mindeg"
		}
		opts = append(opts, pslocal.WithOracle(oracleName))
	case "carving":
		delta, err := floatParam(q.Get("delta"), 1.0)
		if err != nil || delta <= 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad delta parameter %q (want a positive float)", q.Get("delta")))
			return
		}
		opts = append(opts, pslocal.WithCarving(delta))
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown algorithm %q (want oracle|carving)", algorithm))
		return
	}

	sv := s.solver.With(opts...)
	started := time.Now()
	tr := grabTrace("maxis", r.Header.Get(pslocal.RequestIDHeader))
	ctx := pslocal.ContextWithTrace(r.Context(), tr)
	res, inst, err := sv.MaxISReader(ctx,
		http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes), format)
	if err != nil {
		s.finishTrace(tr)
		s.failSolve(w, err)
		return
	}
	snap := s.finishTrace(tr)
	elapsed := time.Since(started)
	resp := maxisResponse{
		Instance:       describe(inst),
		Algorithm:      algorithm,
		Oracle:         oracleName,
		Workers:        workers,
		Size:           len(res.Set),
		TotalWeight:    res.TotalWeight,
		IndependentSet: res.Set,
		Locality:       res.Locality,
		RadiusBound:    res.RadiusBound,
		ElapsedMS:      msSince(started),
	}
	if g := inst.Graph(); g != nil {
		resp.Verified = pslocal.VerifyIndependentSet(g, res.Set) == nil
	}
	if wantTrace(q.Get("trace")) {
		resp.Trace = snap
	}
	s.met.solves.Inc()
	s.met.observeSolve(s.met.maxis, elapsed, inst.CacheHit)
	s.logSlow(r, "maxis", elapsed)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness: 200 as long as the process serves,
// draining or not. Orchestrators that restart on liveness failure must
// not kill a node for leaving the pool gracefully.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// drainEjectQuorum is how many 503 readiness probes the SIGTERM path
// waits for before closing the listener: cfgate's default FailAfter,
// the consecutive-failure count at which the prober ejects a backend.
const drainEjectQuorum = 3

// handleReadyz reports readiness: 503 while draining, 200 otherwise.
// cfgate probes this endpoint, so a draining node is ejected from
// routing within FailAfter probe intervals.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.lastReadyProbe.Store(time.Now().UnixNano())
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"jobs":   s.jobs.Stats(),
		})
		if s.drainProbes.Add(1) >= drainEjectQuorum {
			s.drainEjectedOnce.Do(func() { close(s.drainEjected) })
		}
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleDrainz starts a graceful drain: readiness flips to 503, new
// solve and job submissions are refused, and running plus queued jobs
// finish in the background. Idempotent — repeated calls report the
// current drain state. The process stays up (an operator or supervisor
// still owns its lifetime); SIGTERM runs the same drain and then exits.
func (s *server) handleDrainz(w http.ResponseWriter, _ *http.Request) {
	first := s.draining.CompareAndSwap(false, true)
	if first {
		// The waiter runs detached: /drainz answers immediately and the
		// caller polls /readyz for quiescence.
		go s.jobs.Drain(context.Background())
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"draining": true,
		"started":  first,
		"jobs":     s.jobs.Stats(),
	})
}

// handleStatz answers the Solver's cache counters as {"cache": ...}.
// Every other server number is on /metrics; this block stays only
// because the serving benchmark (perfbench) reads it, until a
// benchmark change moves that read to /metrics and deletes the route.
func (s *server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]pslocal.SolverCacheStats{"cache": s.solver.CacheStats()})
}

// clampWorkers maps the request's workers parameter onto [1, maxWorkers]:
// 0 or negative ask for "as many as allowed" (the server cap).
func (s *server) clampWorkers(workers int) int {
	if workers < 1 || workers > s.cfg.maxWorkers {
		return s.cfg.maxWorkers
	}
	return workers
}

// failSolve maps a Solver error onto the response: abandoned requests are
// only counted (nobody is listening), the typed taxonomy maps onto 4xx
// via errors.Is, and everything else is a 500.
func (s *server) failSolve(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, pslocal.ErrCancelled):
		s.abandon(err)
	case errors.As(err, &tooLarge):
		s.fail(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, pslocal.ErrUnknownOracle),
		errors.Is(err, pslocal.ErrReadInstance),
		errors.Is(err, pslocal.ErrMalformedInput),
		errors.Is(err, pslocal.ErrDuplicateEdge),
		errors.Is(err, pslocal.ErrUnsupportedFormat),
		errors.Is(err, pslocal.ErrUnknownFormat),
		errors.Is(err, pslocal.ErrBadK),
		errors.Is(err, pslocal.ErrBadDelta):
		s.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, pslocal.ErrOracleInapplicable):
		// The instance parsed fine but lies outside the requested partial
		// oracle's class — the client's pairing, not a server fault.
		s.fail(w, http.StatusUnprocessableEntity, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// fail writes a JSON error response and counts the failure.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.met.failures.Inc()
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// abandon records a request whose client went away mid-solve; nothing is
// written because nobody is listening.
func (s *server) abandon(error) {
	s.met.canceled.Inc()
}

// writeJSON encodes v into a pooled buffer and writes it with the given
// status. Encoding before WriteHeader means an encode failure can still
// surface as a 500 instead of a truncated 200.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	e := grabEncodeBuf()
	defer releaseEncodeBuf(e)
	if err := e.enc.Encode(v); err != nil {
		s.met.failures.Inc()
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
}

// intParam parses an optional integer query parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// int64Param parses an optional int64 query parameter.
func int64Param(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

// floatParam parses an optional float query parameter.
func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

// msSince returns the elapsed milliseconds since t.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000.0
}
