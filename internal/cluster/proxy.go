package cluster

// proxy.go is the gateway's HTTP surface: it terminates the client
// request, derives the routing key from the buffered body (the same
// sha256 instance key the backend's solver computes for its cache),
// walks the balancer's attempt plan with bounded retry, and reports the
// serving backend in X-Pslocal-Backend. Every proxied endpoint is
// idempotent by content-hash semantics — solves are pure functions of
// the body and job submission dedupes on the job id — which is what
// makes retrying against the next candidate safe.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/textproto"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pslocal/internal/graphio"
	"pslocal/internal/obs"
	"pslocal/internal/solver"
)

// HeaderBackend reports which backend served a proxied request back to
// the client.
const HeaderBackend = "X-Pslocal-Backend"

// Config configures a Gateway.
type Config struct {
	// Backends are the cfserve base URLs ("http://host:port", no
	// trailing slash required). At least one is required.
	Backends []string
	// Policy picks the routing policy (default PolicyAffinity).
	Policy Policy
	// Replicas is the ring's virtual-node count per backend (default
	// DefaultReplicas).
	Replicas int
	// Retries is how many additional candidates a failed idempotent
	// request tries (default 2; 0 disables retry).
	Retries int
	// MaxBodyBytes bounds buffered request bodies (default 64 MiB).
	MaxBodyBytes int64
	// BackendInflight is the per-backend in-flight count past which
	// affinity spills to the least-loaded backend (0 = never spill).
	BackendInflight int
	// Probe configures health checking.
	Probe ProbeConfig
	// Transport overrides the proxy transport (tests; nil = default).
	Transport http.RoundTripper
	// Logger receives structured request logs (nil = slog.Default).
	Logger *slog.Logger
	// SlowThreshold is the proxied-request duration at which a
	// structured warning is logged (0 disables slow logging).
	SlowThreshold time.Duration
}

// Gateway routes requests across the configured backends. Construct
// with New, start probing with Run, serve through ServeHTTP.
type Gateway struct {
	cfg  Config
	ring *Ring
	// backends holds one record per backend in the ring's sorted order,
	// so the ring's order indexes it directly.
	backends []*backend
	hlth     *health
	rr       atomic.Uint64 // round-robin cursor
	client   *http.Client
	mux      *http.ServeMux
	start    time.Time
	logger   *slog.Logger

	// met owns the gateway-wide request counters GET /metrics serves.
	// Built after the backend records in New.
	met *gatewayMetrics
}

// New validates cfg and builds the gateway.
func New(cfg Config) (*Gateway, error) {
	var urls []string
	for _, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if u, err := url.Parse(b); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q is not an http(s) URL with a host", b)
		}
		urls = append(urls, b)
	}
	if len(urls) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	policy, ok := ParsePolicy(string(cfg.Policy))
	if !ok {
		return nil, fmt.Errorf("cluster: unknown policy %q (want affinity|round-robin|least-loaded)", cfg.Policy)
	}
	cfg.Policy = policy
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	ring := NewRing(urls, cfg.Replicas)
	backends := make([]*backend, len(ring.names))
	for i, name := range ring.names {
		backends[i] = &backend{url: name}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     ring,
		backends: backends,
		hlth:     newHealth(backends, cfg.Probe, cfg.Transport),
		client:   &http.Client{Transport: cfg.Transport}, // no client timeout: solves are long; contexts bound them
		mux:      http.NewServeMux(),
		start:    time.Now(),
		logger:   logger,
	}
	g.met = newGatewayMetrics(g)
	g.mux.HandleFunc("POST /v1/reduce", g.solveHandler(solver.KindHypergraph))
	g.mux.HandleFunc("POST /v1/maxis", g.solveHandler(solver.KindGraph))
	g.mux.HandleFunc("POST /v1/jobs", g.solveHandler(solver.KindHypergraph))
	g.mux.HandleFunc("GET /v1/jobs", g.handleJobList)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobByID)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobByID)
	g.mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleJobByID)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.Handle("GET /metrics", g.met.reg.Handler())
	return g, nil
}

// Ring exposes the routing ring (tests).
func (g *Gateway) Ring() *Ring { return g.ring }

// Run drives the health prober until ctx is done (callers run it in a
// goroutine next to the HTTP server).
func (g *Gateway) Run(ctx context.Context) { g.hlth.run(ctx) }

// ServeHTTP implements http.Handler. Requests no pattern matches stay
// with the mux's own fallback — which distinguishes unknown paths (404)
// from known paths hit with the wrong method (405 + Allow) — through a
// rewriting writer that turns its plain-text body into the gateway's
// JSON error envelope.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Inc()
	// Every request gets a correlation id here, at the cluster's edge: a
	// valid caller-supplied X-Pslocal-Request-Id survives, anything else
	// is replaced with a fresh one. Setting it on r.Header makes it ride
	// every proxy attempt (it is end-to-end, not hop-by-hop), and the
	// response echoes it whether a backend answers or the gateway
	// synthesizes the error.
	rid := obs.EnsureRequestID(r.Header.Get(obs.RequestIDHeader))
	r.Header.Set(obs.RequestIDHeader, rid)
	w.Header().Set(obs.RequestIDHeader, rid)
	if _, pattern := g.mux.Handler(r); pattern == "" {
		g.met.failures.Inc()
		g.mux.ServeHTTP(obs.JSONErrorWriter(w), r)
		return
	}
	g.mux.ServeHTTP(w, r)
}

// writeError emits the service's JSON error envelope.
func (g *Gateway) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// logSlow emits a structured warning for proxied requests at or above
// the configured slow threshold (0 disables). backend is "" when no
// candidate answered.
func (g *Gateway) logSlow(r *http.Request, backend string, d time.Duration) {
	if g.cfg.SlowThreshold <= 0 || d < g.cfg.SlowThreshold {
		return
	}
	g.logger.Warn("slow proxied request",
		"path", r.URL.Path,
		"backend", backend,
		"dur_ms", float64(d.Microseconds())/1000,
		"request_id", r.Header.Get(obs.RequestIDHeader))
}

// retryableStatus reports a response worth rerouting: the backend is
// shedding (queue full, draining) or the hop in front of it broke.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// solveHandler proxies one of the POST endpoints. The body is buffered
// (bounded) both to derive the routing key and to make retry possible.
func (g *Gateway) solveHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		format, err := graphio.ParseFormat(r.URL.Query().Get("format"))
		if err != nil {
			g.met.failures.Inc()
			g.writeError(w, http.StatusBadRequest, err)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
		if err != nil {
			g.met.failures.Inc()
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				g.writeError(w, http.StatusRequestEntityTooLarge, err)
			} else {
				g.writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		plan := g.plan(solver.InstanceKey(kind, format.String(), body), g.cfg.Policy)
		g.forward(w, r, plan[:min(g.cfg.Retries+1, len(plan))], body, nil)
	}
}

// handleJobByID proxies GET/DELETE /v1/jobs/{id} and the SSE events
// stream. The job id is a different hash than the instance key, so the
// backend that ran the job is not derivable here — the id's ring order
// gives a deterministic search sequence, a 404 moves to the next
// backend (with a shared store any node can answer via adoption; without
// one, the scan finds the runner), and every healthy backend is tried
// before giving up.
func (g *Gateway) handleJobByID(w http.ResponseWriter, r *http.Request) {
	plan := g.plan(r.PathValue("id"), PolicyAffinity)
	notFound := func(resp *http.Response) bool { return resp.StatusCode == http.StatusNotFound }
	g.forward(w, r, plan, nil, notFound)
}

// hopByHop are the connection-scoped request headers a proxy must not
// forward (RFC 9110 §7.6.1); Host and Content-Length belong to the
// transport.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
	"Host":                true,
	"Content-Length":      true,
}

// copyClientHeaders forwards the client's request headers onto the
// outbound request, dropping hop-by-hop headers (including any named by
// Connection) so end-to-end metadata — Accept, Last-Event-ID on SSE
// reconnects, auth headers a deployment adds — survives the proxy hop.
func copyClientHeaders(dst, src http.Header) {
	var connDrop []string
	for _, v := range src.Values("Connection") {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				connDrop = append(connDrop, textproto.CanonicalMIMEHeaderKey(name))
			}
		}
	}
	for k, vs := range src {
		if hopByHop[k] || slices.Contains(connDrop, k) {
			continue
		}
		dst[k] = append([]string(nil), vs...)
	}
}

// upstream sends r to b: every request the gateway makes to a backend,
// forwarded or fanned out, goes through here. It carries r's method,
// path, query and end-to-end headers and the given body (nil: none),
// counts the request in b's in-flight gauge until the caller closes the
// response body, times the attempt, and reports a transport failure to
// the prober unless the client went away first.
func (g *Gateway) upstream(r *http.Request, b *backend, body []byte) (*http.Response, error) {
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	target := b.url + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, reqBody)
	if err != nil {
		return nil, err
	}
	copyClientHeaders(req.Header, r.Header)
	b.inflight.Add(1)
	start := time.Now()
	resp, err := g.client.Do(req)
	b.proxy.Observe(time.Since(start))
	if err != nil {
		b.inflight.Add(-1)
		if r.Context().Err() == nil {
			g.hlth.reportFailure(b)
		}
		return nil, err
	}
	resp.Body = &inflightBody{ReadCloser: resp.Body, b: b}
	return resp, nil
}

// inflightBody lowers its backend's in-flight count on the first Close.
type inflightBody struct {
	io.ReadCloser
	b      *backend
	closed atomic.Bool
}

func (ib *inflightBody) Close() error {
	if !ib.closed.Swap(true) {
		ib.b.inflight.Add(-1)
	}
	return ib.ReadCloser.Close()
}

// forward walks the attempt plan: transport failures eject passively
// and move on, retryable statuses reroute, 404s reroute when skipNext
// says so, and the first real answer streams back to the client tagged
// with its backend. A nil body means "no body to resend" (GET/DELETE).
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, plan []*backend, body []byte, skipNext func(*http.Response) bool) {
	started := time.Now()
	var lastStatus int
	var lastResp *http.Response
	closeLast := func() {
		if lastResp != nil {
			io.Copy(io.Discard, lastResp.Body)
			lastResp.Body.Close()
			lastResp = nil
		}
	}
	defer closeLast()
	for i, b := range plan {
		if i > 0 {
			g.met.rerouted.Inc()
		}
		resp, err := g.upstream(r, b, body)
		if err != nil {
			// The client went away: not the backend's fault, stop here.
			if r.Context().Err() != nil {
				g.met.failures.Inc()
				return
			}
			b.retries.Inc()
			lastStatus = http.StatusBadGateway
			continue
		}
		retryable := retryableStatus(resp.StatusCode)
		if retryable || (skipNext != nil && skipNext(resp) && i < len(plan)-1) {
			// Keep the response: if every candidate declines, the last
			// answer (its status and body) is more useful than a generic
			// 502 — a unanimous 404 must stay a 404.
			closeLast()
			lastStatus = resp.StatusCode
			lastResp = resp
			if retryable {
				b.retries.Inc()
			} else {
				b.failovers.Inc()
			}
			continue
		}
		g.hlth.reportSuccess(b)
		b.proxied.Inc()
		g.copyResponse(w, resp, b.url)
		g.logSlow(r, b.url, time.Since(started))
		return
	}
	// Every candidate failed or declined. Relay the last declined
	// response verbatim when there is one; otherwise synthesize.
	g.met.failures.Inc()
	g.logSlow(r, "", time.Since(started))
	if lastResp != nil {
		resp := lastResp
		lastResp = nil
		g.copyResponse(w, resp, "")
		return
	}
	status := http.StatusBadGateway
	if lastStatus == http.StatusServiceUnavailable {
		status = lastStatus
		w.Header().Set("Retry-After", "1")
	}
	g.writeError(w, status, errors.New("cluster: all backends failed"))
}

// copyResponse relays resp to the client. backend tags the response (""
// leaves the header off for synthesized relays). Only an event stream
// is flushed per write, so its events pass through live; any other body
// goes through the server's buffers, whose remainder leaves when the
// handler returns, after resp's close has lowered the in-flight count.
func (g *Gateway) copyResponse(w http.ResponseWriter, resp *http.Response, backend string) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	if backend != "" {
		h.Set(HeaderBackend, backend)
	}
	w.WriteHeader(resp.StatusCode)
	// w's ReadFrom would flush after the first 512 bytes (and, under a
	// Content-Length, write the rest straight to the connection); hiding
	// it keeps the body in the server's buffers.
	var dst io.Writer = struct{ io.Writer }{w}
	if f, ok := w.(http.Flusher); ok && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		dst = &flushWriter{w: w, f: f}
	}
	io.Copy(dst, resp.Body)
}

// flushWriter flushes after every write — what keeps proxied SSE events
// flowing instead of pooling in the gateway's buffers.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// handleJobList fans GET /v1/jobs out to every healthy backend and
// merges the answers, deduplicating by job id (a job may be visible on
// several nodes through a shared store — the first answer wins). Each
// backend applies the query's limit to its own list, so the merge is
// cut to it again. When no backend lists, a backend's 4xx (a query
// every node rejects alike) is relayed; otherwise the answer is 502.
func (g *Gateway) handleJobList(w http.ResponseWriter, r *http.Request) {
	backends := g.healthyBackends()
	if len(backends) == 0 {
		backends = g.backends
	}
	type listResp struct {
		listed bool
		jobs   []json.RawMessage
		// rejected is a 4xx answer, its body read into memory.
		rejected *http.Response
	}
	results := make([]listResp, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.upstream(r, b, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, err := io.ReadAll(resp.Body)
				if err == nil && resp.StatusCode >= 400 && resp.StatusCode < 500 {
					results[i].rejected = &http.Response{
						StatusCode: resp.StatusCode,
						Header:     resp.Header,
						Body:       io.NopCloser(bytes.NewReader(body)),
					}
				}
				return
			}
			var doc struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				return
			}
			g.hlth.reportSuccess(b)
			results[i] = listResp{listed: true, jobs: doc.Jobs}
		}()
	}
	wg.Wait()

	seen := make(map[string]bool)
	var merged []json.RawMessage
	answered := 0
	for _, res := range results {
		if !res.listed {
			continue
		}
		answered++
		for _, raw := range res.jobs {
			var probe struct {
				Job struct {
					ID string `json:"id"`
				} `json:"job"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil || probe.Job.ID == "" || seen[probe.Job.ID] {
				continue
			}
			seen[probe.Job.ID] = true
			merged = append(merged, raw)
		}
	}
	if answered == 0 {
		g.met.failures.Inc()
		for _, res := range results {
			if res.rejected != nil {
				g.copyResponse(w, res.rejected, "")
				return
			}
		}
		g.writeError(w, http.StatusBadGateway, errors.New("cluster: no backend answered the list"))
		return
	}
	if limit, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"count": len(merged), "jobs": merged})
}

// handleHealthz is the gateway's own liveness.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"service":  "cfgate",
		"uptime_s": time.Since(g.start).Seconds(),
	})
}

// handleReadyz reports readiness: at least one healthy backend.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := g.healthyBackends()
	w.Header().Set("Content-Type", "application/json")
	if len(healthy) == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "no healthy backends"})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"status": "ready", "healthy_backends": len(healthy)})
}
