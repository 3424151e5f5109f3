package main

// server.go implements the HTTP surface of the reduction service. Two
// POST endpoints expose the pipeline synchronously — /v1/reduce runs the
// Theorem 1.1 reduction on a hypergraph, /v1/maxis solves MaxIS on a
// graph — and the asynchronous /v1/jobs endpoints (jobs.go) run the same
// reductions through the job subsystem's queue instead of holding the
// connection open. All three read the instance format, palette, oracle,
// worker count and seed through one parser, parseSolve, which resolves
// every solve parameter to an explicit value, so one request means one
// solve however it spells its defaults.
//
// Both synchronous endpoints run through one handler, serveSolve, over
// one shared pslocal.Solver: the server owns no cache or gate of its own.
// The base Solver (built in newServer) carries the server-wide limits —
// the parsed-instance cache and the bounded admission gate — and each
// request derives a per-call variant with Solver.With for its parameters;
// the derived solvers share the base cache and gate. Solver errors map
// onto HTTP statuses via errors.Is over the pslocal error taxonomy, and
// every response verifies its own output through the facade verifiers,
// inside the timed and traced section, before reporting verified=true.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pslocal"
	"pslocal/internal/cluster"
	"pslocal/internal/graphio"
	"pslocal/internal/obs"
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
	// seed is the default oracle seed when a request carries none or 0.
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
	s.mux.HandleFunc("POST /v1/reduce", s.serveSolve(solveEndpoint{
		name: "reduce", solved: s.met.reduces, track: s.met.reduce, solve: solveReduce}))
	s.mux.HandleFunc("POST /v1/maxis", s.serveSolve(solveEndpoint{
		name: "maxis", maxis: true, solved: s.met.solves, track: s.met.maxis, solve: solveMaxIS}))
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
		s.mux.ServeHTTP(obs.JSONErrorWriter(w), r)
		return
	}
	s.mux.ServeHTTP(w, r)
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
// newServer always configures the cache, so every instance has a key.
func describe(inst *pslocal.InstanceInfo) instanceInfo {
	info := instanceInfo{
		Kind:     inst.Kind,
		N:        inst.N,
		M:        inst.M,
		Weighted: inst.Weighted(),
		Cache:    "miss",
		Key:      "sha256:" + inst.Key[:16],
	}
	if inst.CacheHit {
		info.Cache = "hit"
	}
	return info
}

// solveParams is a solve request's query with every parameter resolved
// to an explicit value. parseSolve fills it for /v1/reduce, /v1/maxis
// and /v1/jobs alike.
type solveParams struct {
	format  pslocal.GraphFormat
	k       int   // palette size: read on reduce and jobs, 3 on maxis
	workers int   // in [1, -max-workers]
	seed    int64 // never 0 unless -seed is
	// oracle is the strategy name, "" only under algorithm=carving.
	oracle    string
	algorithm string  // maxis only: oracle or carving
	delta     float64 // algorithm=carving only
	trace     bool    // embed the trace in the response
}

// parseSolve resolves q's solve parameters. maxis selects /v1/maxis's
// set: algorithm and delta instead of k, and greedy-mindeg instead of
// implicit as the default oracle. The error is answered 400.
func (s *server) parseSolve(q url.Values, maxis bool) (solveParams, error) {
	trace := q.Get("trace")
	p := solveParams{k: 3, workers: 1, oracle: q.Get("oracle"), trace: trace == "1" || trace == "true"}
	var err error
	if p.format, err = pslocal.ParseGraphFormat(q.Get("format")); err != nil {
		return p, err
	}
	if err := queryNum(q, "workers", &p.workers); err != nil {
		return p, err
	}
	// 0 or negative ask for "as many as allowed" (the server cap).
	if p.workers < 1 || p.workers > s.cfg.maxWorkers {
		p.workers = s.cfg.maxWorkers
	}
	if err := queryNum(q, "seed", &p.seed); err != nil {
		return p, err
	}
	if p.seed == 0 {
		p.seed = s.cfg.seed
	}
	if !maxis {
		if err := queryNum(q, "k", &p.k); err != nil || p.k < 1 {
			return p, fmt.Errorf("bad k parameter %q (want a positive integer)", q.Get("k"))
		}
		if p.oracle == "" {
			p.oracle = "implicit"
		}
		return p, nil
	}
	switch p.algorithm = q.Get("algorithm"); p.algorithm {
	case "", "oracle":
		p.algorithm = "oracle"
		if p.oracle == "" {
			p.oracle = "greedy-mindeg"
		}
	case "carving":
		p.oracle, p.delta = "", 1.0
		if err := queryNum(q, "delta", &p.delta); err != nil || p.delta <= 0 {
			return p, fmt.Errorf("bad delta parameter %q (want a positive float)", q.Get("delta"))
		}
	default:
		return p, fmt.Errorf("unknown algorithm %q (want oracle|carving)", p.algorithm)
	}
	return p, nil
}

// solveEndpoint is what differs between the synchronous solves: the name
// their traces and slow-log lines carry, their success counter and
// latency track, and solve, which reads the body through the endpoint's
// reader, verifies the answer and builds the response body.
type solveEndpoint struct {
	name   string
	maxis  bool // parseSolve's parameter set
	solved *pslocal.MetricsCounter
	track  *pslocal.MetricsHistogram
	solve  func(context.Context, *pslocal.Solver, io.Reader, solveParams) (*pslocal.InstanceInfo, solveResponse, error)
}

// solveResponse is a synchronous solve's response body; stamp fills in
// what is known only once the timed section ends.
type solveResponse interface {
	stamp(elapsedMS float64, trace *pslocal.TraceSnapshot)
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

// serveSolve is the one handler of the synchronous solves: drain
// refusal, parameters, the per-request Solver, then the reader and the
// verifier under a leased trace and the request timer, then metrics,
// the slow log and the encoded response.
func (s *server) serveSolve(ep solveEndpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.refuseDraining(w) {
			return
		}
		p, err := s.parseSolve(r.URL.Query(), ep.maxis)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		strategy := pslocal.WithOracle(p.oracle)
		if p.algorithm == "carving" {
			strategy = pslocal.WithCarving(p.delta)
		}
		sv := s.solver.With(pslocal.WithK(p.k), pslocal.WithWorkers(p.workers), pslocal.WithSeed(p.seed), strategy)
		started := time.Now()
		// Every solve runs under a leased trace: the snapshot lands in the
		// /v1/traces ring whether the solve succeeds or fails, and ?trace=1
		// embeds it in the response. Admission (the shared gate) happens
		// inside the reader before the body is even read: parsing and CSR
		// construction are exactly the costs the gate exists to bound.
		tr := obs.LeaseTrace(ep.name, r.Header.Get(pslocal.RequestIDHeader))
		inst, resp, err := ep.solve(pslocal.ContextWithTrace(r.Context(), tr), sv,
			http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes), p)
		snap := s.finishTrace(tr)
		if err != nil {
			s.failSolve(w, err)
			return
		}
		elapsed := time.Since(started)
		ep.solved.Inc()
		s.met.observeSolve(ep.track, elapsed, inst.CacheHit)
		s.logSlow(r, ep.name, elapsed)
		if !p.trace {
			snap = nil
		}
		resp.stamp(float64(elapsed.Microseconds())/1000, snap)
		s.writeJSON(w, http.StatusOK, resp)
	}
}

// reduceResponse is the /v1/reduce response body. Result is the
// graphio reduction-result document, so CLI -out files and service
// responses share one schema.
type reduceResponse struct {
	Instance  instanceInfo       `json:"instance"`
	Oracle    string             `json:"oracle"`
	Workers   int                `json:"workers"`
	Verified  bool               `json:"verified"`
	ElapsedMS float64            `json:"elapsed_ms"`
	Result    *graphio.ResultDoc `json:"result"`
	// Trace is the per-phase span tree, embedded when the request asked
	// for it with ?trace=1.
	Trace *pslocal.TraceSnapshot `json:"trace,omitempty"`
}

func (r *reduceResponse) stamp(ms float64, tr *pslocal.TraceSnapshot) { r.ElapsedMS, r.Trace = ms, tr }

// solveReduce runs the Theorem 1.1 reduction on the posted hypergraph.
// VerifyReduction checks the multicolouring is conflict-free before it
// checks the phase bookkeeping.
func solveReduce(ctx context.Context, sv *pslocal.Solver, body io.Reader, p solveParams) (*pslocal.InstanceInfo, solveResponse, error) {
	res, inst, err := sv.SolveReader(ctx, body, p.format)
	if err != nil {
		return nil, nil, err
	}
	resp := &reduceResponse{
		Instance: describe(inst),
		Oracle:   p.oracle,
		Workers:  p.workers,
		Result:   graphio.NewResultDoc(res),
	}
	if hg := inst.Hypergraph(); hg != nil {
		resp.Verified = pslocal.VerifyReduction(hg, res) == nil
	}
	return inst, resp, nil
}

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

func (r *maxisResponse) stamp(ms float64, tr *pslocal.TraceSnapshot) { r.ElapsedMS, r.Trace = ms, tr }

// solveMaxIS solves MaxIS on the posted graph, either through a registry
// oracle (algorithm=oracle, the default) or the SLOCAL ball-carving
// (1+δ)-approximation (algorithm=carving, which reports its locality).
func solveMaxIS(ctx context.Context, sv *pslocal.Solver, body io.Reader, p solveParams) (*pslocal.InstanceInfo, solveResponse, error) {
	res, inst, err := sv.MaxISReader(ctx, body, p.format)
	if err != nil {
		return nil, nil, err
	}
	resp := &maxisResponse{
		Instance:       describe(inst),
		Algorithm:      p.algorithm,
		Oracle:         p.oracle,
		Workers:        p.workers,
		Size:           len(res.Set),
		TotalWeight:    res.TotalWeight,
		IndependentSet: res.Set,
		Locality:       res.Locality,
		RadiusBound:    res.RadiusBound,
	}
	if g := inst.Graph(); g != nil {
		resp.Verified = pslocal.VerifyIndependentSet(g, res.Set) == nil
	}
	return inst, resp, nil
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
const drainEjectQuorum = cluster.DefaultFailAfter

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

// failSolve maps a Solver error onto the response: abandoned requests are
// only counted (nobody is listening), the typed taxonomy maps onto 4xx
// via errors.Is, and everything else is a 500.
func (s *server) failSolve(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, pslocal.ErrCancelled):
		s.met.canceled.Inc()
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

// queryNum parses the optional numeric query parameter name into *v,
// leaving *v, the caller's default, when the parameter is absent.
func queryNum[T int | int64 | float64](q url.Values, name string, v *T) error {
	raw := q.Get(name)
	if raw == "" {
		return nil
	}
	var err error
	switch v := any(v).(type) {
	case *int:
		*v, err = strconv.Atoi(raw)
	case *int64:
		*v, err = strconv.ParseInt(raw, 10, 64)
	case *float64:
		*v, err = strconv.ParseFloat(raw, 64)
	}
	if err != nil {
		return fmt.Errorf("bad %s parameter %q", name, raw)
	}
	return nil
}
