package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pslocal/internal/graphio"
	"pslocal/internal/obs"
	"pslocal/internal/solver"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	names := []string{"http://c", "http://a", "http://b"}
	r1 := NewRing(names, 64)
	r2 := NewRing([]string{"http://b", "http://a", "http://c"}, 64)
	for _, key := range []string{"k1", "k2", "deadbeef", ""} {
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner of %q depends on input order", key)
		}
		c := r1.Candidates(key)
		if len(c) != 3 {
			t.Fatalf("candidates(%q) = %v, want all 3 backends", key, c)
		}
		seen := map[string]bool{}
		for _, b := range c {
			seen[b] = true
		}
		if len(seen) != 3 {
			t.Fatalf("candidates(%q) repeat: %v", key, c)
		}
		if c[0] != r1.Owner(key) {
			t.Fatalf("candidates(%q)[0] = %s, owner = %s", key, c[0], r1.Owner(key))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for b, n := range counts {
		if n < 500 { // perfectly even would be 1000
			t.Errorf("backend %s owns only %d/3000 keys", b, n)
		}
	}
}

func TestRingStabilityUnderRemoval(t *testing.T) {
	full := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	partial := NewRing([]string{"http://a", "http://b"}, 0)
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if full.Owner(key) != "http://c" && full.Owner(key) != partial.Owner(key) {
			moved++
		}
	}
	if moved > n/10 {
		t.Errorf("removing one backend moved %d/%d keys owned by others", moved, n)
	}
}

func TestHealthEjectionAndReadmission(t *testing.T) {
	b1, b2 := &backend{url: "b1"}, &backend{url: "b2"}
	h := newHealth([]*backend{b1, b2}, ProbeConfig{FailAfter: 2, Interval: 10 * time.Millisecond}, nil)
	if !b1.admitted() {
		t.Fatal("backends must start healthy")
	}
	h.reportFailure(b1)
	if !b1.admitted() {
		t.Fatal("one failure must not eject at FailAfter=2")
	}
	h.reportFailure(b1)
	if b1.admitted() {
		t.Fatal("b1 should be ejected after 2 consecutive failures")
	}
	if b1.ejections != 1 {
		t.Fatalf("ejections = %d, want 1", b1.ejections)
	}
	// Failures while ejected grow the backoff; success re-admits.
	h.reportFailure(b1)
	h.reportSuccess(b1)
	if !b1.admitted() {
		t.Fatal("success must re-admit")
	}
	if b1.fails != 0 {
		t.Fatalf("fails = %d after success, want 0", b1.fails)
	}
	// A success in between resets the consecutive counter.
	h.reportFailure(b2)
	h.reportSuccess(b2)
	h.reportFailure(b2)
	if !b2.admitted() {
		t.Fatal("non-consecutive failures must not eject")
	}
}

func TestHealthProberEjectsAndReadmits(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	b := &backend{url: srv.URL}
	h := newHealth([]*backend{b}, ProbeConfig{
		Interval:   5 * time.Millisecond,
		FailAfter:  2,
		MaxBackoff: 20 * time.Millisecond,
	}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); h.run(ctx) }()

	waitFor := func(want bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for b.admitted() != want {
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	ready.Store(false)
	waitFor(false, "prober never ejected a 503ing backend")
	ready.Store(true)
	waitFor(true, "prober never re-admitted a recovered backend")
	cancel()
	<-done
}

// solveBackend is a stub cfserve: it counts requests and serves a
// canned JSON body, optionally refusing with 503.
type solveBackend struct {
	name     string
	srv      *httptest.Server
	hits     atomic.Int64
	refusing atomic.Bool
}

func newSolveBackend(t *testing.T, name string) *solveBackend {
	t.Helper()
	b := &solveBackend{name: name}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if b.refusing.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		b.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"served_by":%q}`+"\n", b.name)
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// record returns the gateway's record of the backend at addr.
func record(t *testing.T, g *Gateway, addr string) *backend {
	t.Helper()
	for _, b := range g.backends {
		if b.url == addr {
			return b
		}
	}
	t.Fatalf("gateway has no backend %q", addr)
	return nil
}

// urlsOf lists a plan's backend URLs.
func urlsOf(plan []*backend) []string {
	out := make([]string, len(plan))
	for i, b := range plan {
		out[i] = b.url
	}
	return out
}

func postReduce(t *testing.T, g *Gateway, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?k=2", strings.NewReader(body))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	return rec
}

// scrape serves GET /metrics (a request the gateway counts) and parses
// the exposition, which also holds it to the format's rules.
func scrape(t *testing.T, g *Gateway) *obs.Exposition {
	t.Helper()
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	e, err := obs.ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return e
}

// perBackend reads one per-backend family, failing when a backend's
// series is absent.
func perBackend(t *testing.T, e *obs.Exposition, name string, backends ...string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, len(backends))
	for _, b := range backends {
		v, ok := e.Value(name, obs.L("backend", b))
		if !ok {
			t.Fatalf("series %s{backend=%q} missing from /metrics", name, b)
		}
		out[b] = v
	}
	return out
}

func TestGatewayAffinityPinsInstances(t *testing.T) {
	b1, b2, b3 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2"), newSolveBackend(t, "b3")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL}})

	body := "hypergraph 3 1\n0 1 2\n"
	var first string
	for i := 0; i < 8; i++ {
		rec := postReduce(t, g, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		backend := rec.Header().Get(HeaderBackend)
		if backend == "" {
			t.Fatal("response missing backend header")
		}
		if first == "" {
			first = backend
		} else if backend != first {
			t.Fatalf("same body routed to %s then %s", first, backend)
		}
	}
	// The routing key is the solver's own cache key derivation.
	wantKey := solver.InstanceKey(solver.KindHypergraph, graphio.FormatAuto.String(), []byte(body))
	if owner := g.Ring().Owner(wantKey); first != owner {
		t.Fatalf("body routed to %s, want the ring owner of its instance key %s", first, owner)
	}
	total := b1.hits.Load() + b2.hits.Load() + b3.hits.Load()
	if total != 8 {
		t.Fatalf("backends saw %d requests, want 8", total)
	}
}

func TestGatewayRoundRobinSpreads(t *testing.T) {
	b1, b2 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2")
	g := newTestGateway(t, Config{
		Backends: []string{b1.srv.URL, b2.srv.URL},
		Policy:   PolicyRoundRobin,
	})
	body := "hypergraph 3 1\n0 1 2\n"
	for i := 0; i < 6; i++ {
		if rec := postReduce(t, g, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if b1.hits.Load() != 3 || b2.hits.Load() != 3 {
		t.Fatalf("round-robin split %d/%d, want 3/3", b1.hits.Load(), b2.hits.Load())
	}
}

func TestGatewayRetriesRefusingBackend(t *testing.T) {
	b1, b2, b3 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2"), newSolveBackend(t, "b3")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL}, Retries: 2})

	body := "hypergraph 3 1\n0 1 2\n"
	rec := postReduce(t, g, body)
	owner := rec.Header().Get(HeaderBackend)
	byURL := map[string]*solveBackend{b1.srv.URL: b1, b2.srv.URL: b2, b3.srv.URL: b3}

	// The affinity owner starts refusing (draining): requests reroute to
	// the next candidate with zero client-visible failures.
	byURL[owner].refusing.Store(true)
	rec = postReduce(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after owner started refusing: %s", rec.Code, rec.Body)
	}
	if next := rec.Header().Get(HeaderBackend); next == owner || next == "" {
		t.Fatalf("rerouted to %q, want a different backend", next)
	}
	if v, _ := scrape(t, g).Value("cfgate_rerouted_total"); v == 0 {
		t.Fatal("reroute not counted")
	}
}

func TestGatewayRetriesDeadBackendAndEjects(t *testing.T) {
	b1, b2, b3 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2"), newSolveBackend(t, "b3")
	g := newTestGateway(t, Config{
		Backends: []string{b1.srv.URL, b2.srv.URL, b3.srv.URL},
		Retries:  2,
		Probe:    ProbeConfig{FailAfter: 1},
	})
	body := "hypergraph 3 1\n0 1 2\n"
	owner := postReduce(t, g, body).Header().Get(HeaderBackend)
	byURL := map[string]*solveBackend{b1.srv.URL: b1, b2.srv.URL: b2, b3.srv.URL: b3}
	byURL[owner].srv.Close() // SIGKILL equivalent: connection refused

	rec := postReduce(t, g, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after owner died: %s", rec.Code, rec.Body)
	}
	// The transport failure ejected the owner passively (FailAfter=1), so
	// the next request skips it outright.
	if record(t, g, owner).admitted() {
		t.Fatal("dead backend still admitted after a transport failure")
	}
	rec = postReduce(t, g, body)
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderBackend) == owner {
		t.Fatalf("status %d backend %q: dead owner not skipped", rec.Code, rec.Header().Get(HeaderBackend))
	}
}

func TestGatewayAllBackendsDown(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}, Retries: 2})
	b.refusing.Store(true)
	rec := postReduce(t, g, "hypergraph 2 1\n0 1\n")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every backend refusing, want 503", rec.Code)
	}
	// The backend's own 503 (with its Retry-After) is relayed verbatim.
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("relayed 503 lost its Retry-After header")
	}
	if v, _ := scrape(t, g).Value("cfgate_failures_total"); v == 0 {
		t.Fatal("exhausted plan not counted as a failure")
	}
}

func TestGatewayJobGet404Failover(t *testing.T) {
	const id = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	// Backend URLs carry random ports, so the id's ring order is only
	// known once the gateway exists; the job then goes to the backend
	// the scan reaches last, so the lookup passes over two 404s.
	var ownerURL atomic.Value // string
	mkBackend := func() *httptest.Server {
		var srv *httptest.Server
		srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if ownerURL.Load() != srv.URL {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintln(w, `{"error":"jobs: no such job"}`)
				return
			}
			fmt.Fprintf(w, `{"job":{"id":%q,"state":"done"}}`+"\n", id)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	all := []string{mkBackend().URL, mkBackend().URL, mkBackend().URL}
	g := newTestGateway(t, Config{Backends: all})
	plan := urlsOf(g.plan(id, PolicyAffinity))
	if len(plan) != 3 {
		t.Fatalf("plan %v, want all three backends", plan)
	}
	owner := plan[2]
	ownerURL.Store(owner)

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the 404s skipped: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get(HeaderBackend) != owner {
		t.Fatalf("served by %q, want the owning backend", rec.Header().Get(HeaderBackend))
	}
	// Each backend the id scan passed over counts one job-lookup
	// failover, and none counts as a retry: a 404 is the scan working.
	e := scrape(t, g)
	for b, n := range perBackend(t, e, "cfgate_job_lookup_failovers_total", all...) {
		want := 1.0
		if b == owner {
			want = 0
		}
		if n != want {
			t.Errorf("backend %s: %v job-lookup failovers, want %v", b, n, want)
		}
	}
	for b, n := range perBackend(t, e, "cfgate_backend_retries_total", all...) {
		if n != 0 {
			t.Errorf("backend %s: %v retries for a job lookup, want 0", b, n)
		}
	}

	// Unknown everywhere stays a 404 for the client; the first backend
	// is passed over, the last one's 404 is the answer.
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+strings.Repeat("b", 64), nil)
	rec = httptest.NewRecorder()
	gAllMiss := newTestGateway(t, Config{Backends: plan[:2]})
	gAllMiss.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d for a job no backend knows, want 404", rec.Code)
	}
	e = scrape(t, gAllMiss)
	var failovers float64
	for _, n := range perBackend(t, e, "cfgate_job_lookup_failovers_total", plan[:2]...) {
		failovers += n
	}
	if failovers != 1 {
		t.Errorf("job-lookup failovers = %v across two 404ing backends, want 1", failovers)
	}
}

// jobListBackend is a stub cfserve that lists the given job ids, cut to
// the request's limit as cfserve cuts its own list; like cfserve, it
// answers a malformed limit 400.
func jobListBackend(t *testing.T, ids ...string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		limit, err := 0, error(nil)
		if raw := r.URL.Query().Get("limit"); raw != "" {
			limit, err = strconv.Atoi(raw)
		}
		if err != nil || limit < 0 {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("bad limit parameter %q", r.URL.Query().Get("limit"))})
			return
		}
		jobs := make([]map[string]any, 0, len(ids))
		for _, id := range ids {
			jobs = append(jobs, map[string]any{"job": map[string]any{"id": id, "state": "done"}})
		}
		if limit > 0 && len(jobs) > limit {
			jobs = jobs[:limit]
		}
		json.NewEncoder(w).Encode(map[string]any{"count": len(jobs), "jobs": jobs})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// listJobs serves GET /v1/jobs with the given query and returns the
// merged ids and the reported count.
func listJobs(t *testing.T, g *Gateway, query string) ([]string, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var doc struct {
		Count int `json:"count"`
		Jobs  []struct {
			Job struct {
				ID string `json:"id"`
			} `json:"job"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(doc.Jobs))
	for _, j := range doc.Jobs {
		ids = append(ids, j.Job.ID)
	}
	return ids, doc.Count
}

func TestGatewayJobListMergesAndDedupes(t *testing.T) {
	s1, s2 := jobListBackend(t, "id-a", "id-b"), jobListBackend(t, "id-b", "id-c")
	g := newTestGateway(t, Config{Backends: []string{s1.URL, s2.URL}})

	ids, count := listJobs(t, g, "")
	if count != 3 || len(ids) != 3 {
		t.Fatalf("merged %d jobs (count %d), want 3 (id-b deduped): %v", len(ids), count, ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("job %s duplicated in the merge", id)
		}
		seen[id] = true
	}
}

// TestGatewayJobListHonoursLimit: every backend cuts its own list to the
// limit, so the merge of three must be cut to it again.
func TestGatewayJobListHonoursLimit(t *testing.T) {
	backends := []string{
		jobListBackend(t, "id-a", "id-b").URL,
		jobListBackend(t, "id-c", "id-d").URL,
		jobListBackend(t, "id-e", "id-f").URL,
	}
	g := newTestGateway(t, Config{Backends: backends})
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?limit=2", 2},
		{"?limit=1&state=done", 1},
		{"?limit=10", 6},
		{"?limit=0", 6},
	} {
		if ids, count := listJobs(t, g, tc.query); len(ids) != tc.want || count != tc.want {
			t.Errorf("GET /v1/jobs%s: %d jobs (count %d), want %d", tc.query, len(ids), count, tc.want)
		}
	}
}

// TestGatewayJobListRelaysRejection: a query every backend rejects is
// the client's error, so its 4xx and body come back, not a 502; with no
// answer at all the list still fails 502.
func TestGatewayJobListRelaysRejection(t *testing.T) {
	backends := []string{jobListBackend(t, "id-a").URL, jobListBackend(t, "id-b").URL}
	g := newTestGateway(t, Config{Backends: backends})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs?limit=abc", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /v1/jobs?limit=abc = %d (%s), want the backends' 400", rec.Code, rec.Body)
	}
	if want := `{"error":"bad limit parameter \"abc\""}` + "\n"; rec.Body.String() != want {
		t.Fatalf("body %q, want the backend's %q", rec.Body, want)
	}
	if v, _ := scrape(t, g).Value("cfgate_failures_total"); v != 1 {
		t.Fatalf("failures = %v, want the unlisted request counted once", v)
	}

	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)
	g = newTestGateway(t, Config{Backends: []string{failing.URL}})
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("GET /v1/jobs with every backend failing = %d, want 502", rec.Code)
	}
}

// TestGatewayJobListIsAnUpstreamRequest: the list fan-out leaves the
// gateway like a forwarded request does, carrying the client's request
// id and end-to-end headers and counting in the backend's in-flight
// gauge until its answer is read.
func TestGatewayJobListIsAnUpstreamRequest(t *testing.T) {
	arrived, release := make(chan http.Header, 1), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		arrived <- r.Header.Clone()
		<-release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"count":1,"jobs":[{"job":{"id":"id-a","state":"done"}}]}`)
	}))
	t.Cleanup(srv.Close)
	g := newTestGateway(t, Config{Backends: []string{srv.URL}})

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	req.Header.Set(obs.RequestIDHeader, "gw-list-0001")
	req.Header.Set("Authorization", "Bearer tok")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.ServeHTTP(rec, req)
	}()
	var seen http.Header
	select {
	case seen = <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the list never reached the backend")
	}
	if v := perBackend(t, scrape(t, g), "cfgate_backend_inflight", srv.URL)[srv.URL]; v != 1 {
		t.Errorf("in-flight = %v while the list waits on the backend, want 1", v)
	}
	close(release)
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := seen.Get(obs.RequestIDHeader); got != "gw-list-0001" {
		t.Errorf("backend saw request id %q, want the client's gw-list-0001", got)
	}
	if got := seen.Get("Authorization"); got != "Bearer tok" {
		t.Errorf("backend saw Authorization %q, want the client's", got)
	}
	if v := perBackend(t, scrape(t, g), "cfgate_backend_inflight", srv.URL)[srv.URL]; v != 0 {
		t.Errorf("in-flight = %v after the list answered, want 0", v)
	}
}

// TestGatewayStreamsEventsLive: an events stream proxied through a
// real listener delivers its first event while the backend still holds
// the stream open, rather than when the stream ends.
func TestGatewayStreamsEventsLive(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "event: running\ndata: {}\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-release:
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(backend.Close)
	gate := httptest.NewServer(newTestGateway(t, Config{Backends: []string{backend.URL}}))
	t.Cleanup(gate.Close)
	defer close(release)

	resp, err := http.Get(gate.URL + "/v1/jobs/" + strings.Repeat("a", 64) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	first := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(resp.Body).ReadString('\n')
		first <- line
	}()
	select {
	case line := <-first:
		if line != "event: running\n" {
			t.Fatalf("first line %q, want the running event", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first event did not pass the gateway while the stream was open")
	}
}

func TestGatewayReadyzReflectsBackends(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}})
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d with a healthy backend", rec.Code)
	}
	rb := record(t, g, b.srv.URL)
	g.hlth.reportFailure(rb)
	g.hlth.reportFailure(rb)
	g.hlth.reportFailure(rb)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with every backend ejected, want 503", rec.Code)
	}
}

func TestGatewayStatzCountsPerBackend(t *testing.T) {
	b1, b2 := newSolveBackend(t, "b1"), newSolveBackend(t, "b2")
	g := newTestGateway(t, Config{Backends: []string{b1.srv.URL, b2.srv.URL}, Policy: PolicyRoundRobin})
	body := "hypergraph 3 1\n0 1 2\n"
	for i := 0; i < 4; i++ {
		postReduce(t, g, body)
	}
	e := scrape(t, g)
	// The four reduces plus the scrape itself.
	if v, _ := e.Value("cfgate_requests_total"); v != 5 {
		t.Fatalf("requests = %v, want 5", v)
	}
	if v, ok := e.Value("cfgate_policy_info", obs.L("policy", "round-robin")); !ok || v != 1 {
		t.Fatalf("policy info = %v (found %t), want round-robin = 1", v, ok)
	}
	var proxied float64
	for b, n := range perBackend(t, e, "cfgate_backend_proxied_total", b1.srv.URL, b2.srv.URL) {
		proxied += n
		if n != 2 {
			t.Errorf("backend %s proxied %v, want 2 under round-robin", b, n)
		}
	}
	if proxied != 4 {
		t.Fatalf("proxied sum = %v, want 4", proxied)
	}
	for b, n := range perBackend(t, e, "cfgate_backend_inflight", b1.srv.URL, b2.srv.URL) {
		if n != 0 {
			t.Fatalf("backend %s in-flight %v after requests completed", b, n)
		}
	}
	for b, n := range perBackend(t, e, "cfgate_backend_consecutive_failures", b1.srv.URL, b2.srv.URL) {
		if n != 0 {
			t.Fatalf("backend %s has %v consecutive failures, want 0", b, n)
		}
	}
}

func TestGatewayRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends must fail")
	}
	if _, err := New(Config{Backends: []string{"not-a-url"}}); err == nil {
		t.Error("non-http backend must fail")
	}
	if _, err := New(Config{Backends: []string{"http://exa mple:1"}}); err == nil {
		t.Error("unparsable backend URL must fail")
	}
	if _, err := New(Config{Backends: []string{"http://a"}, Policy: "bogus"}); err == nil {
		t.Error("unknown policy must fail")
	}
}

func TestGatewayBadFormatParam(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}})
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?format=bogus", strings.NewReader("x"))
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d for a bad format, want 400", rec.Code)
	}
	if b.hits.Load() != 0 {
		t.Fatal("bad request must not reach a backend")
	}
}

func TestLeastLoadedPrefersIdleBackend(t *testing.T) {
	g := newTestGateway(t, Config{Backends: []string{"http://a", "http://b"}})
	record(t, g, "http://a").inflight.Add(1)
	if plan := g.plan("any", PolicyLeastLoaded); plan[0].url != "http://b" {
		t.Fatalf("least-loaded picked %s with a busy, want b", plan[0].url)
	}
}

func TestAffinitySaturationSpills(t *testing.T) {
	g := newTestGateway(t, Config{Backends: []string{"http://a", "http://b", "http://c"}, BackendInflight: 2})
	key := "some-key"
	owner := g.Ring().Owner(key)
	record(t, g, owner).inflight.Add(2)
	plan := g.plan(key, PolicyAffinity)
	if plan[0].url == owner {
		t.Fatalf("saturated owner %s still planned first", owner)
	}
	// Below saturation the owner leads.
	record(t, g, owner).inflight.Add(-2)
	if plan := g.plan(key, PolicyAffinity); plan[0].url != owner {
		t.Fatalf("idle owner %s not planned first: %v", owner, urlsOf(plan))
	}
}

// TestGatewayMethodNotAllowed checks that a known path hit with the
// wrong method surfaces the mux's 405 + Allow (not a blanket 404) in
// the JSON error envelope, and a truly unknown path stays a 404.
// TestGatewayMethodNotAllowed: routes the gateway's mux cannot match
// answer with the JSON error envelope, as cfserve's do, and never reach
// a backend.
func TestGatewayMethodNotAllowed(t *testing.T) {
	b := newSolveBackend(t, "b1")
	g := newTestGateway(t, Config{Backends: []string{b.srv.URL}})
	for _, tc := range []struct {
		name, method, path string
		wantStatus         int
	}{
		{"unknown path", http.MethodGet, "/nope", http.StatusNotFound},
		{"wrong method on reduce", http.MethodGet, "/v1/reduce", http.StatusMethodNotAllowed},
		{"put on reduce", http.MethodPut, "/v1/reduce", http.StatusMethodNotAllowed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader("x")))
			if rec.Code != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.wantStatus)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want the JSON envelope", ct)
			}
			var envelope struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
				t.Errorf("body %q is not the JSON error envelope (%v)", rec.Body, err)
			}
			if tc.wantStatus == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
				t.Error("405 lost its Allow header")
			}
		})
	}
	if b.hits.Load() != 0 {
		t.Fatal("unroutable requests must not reach a backend")
	}
}

// TestGatewayForwardsClientHeaders checks the proxy hop is faithful:
// end-to-end headers (auth, accept) reach the backend, hop-by-hop
// headers and anything named by Connection are stripped.
func TestGatewayForwardsClientHeaders(t *testing.T) {
	var seen atomic.Value // http.Header
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		seen.Store(r.Header.Clone())
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(backend.Close)
	g := newTestGateway(t, Config{Backends: []string{backend.URL}})

	body := "hypergraph 3 1\n0 1 2\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/reduce?k=2", strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer tok")
	req.Header.Set("Accept", "application/json")
	req.Header.Set("X-Custom-Conn", "dropme")
	req.Header.Set("Connection", "X-Custom-Conn")
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}

	got, _ := seen.Load().(http.Header)
	if got == nil {
		t.Fatal("backend never saw the request")
	}
	if got.Get("Authorization") != "Bearer tok" || got.Get("Accept") != "application/json" {
		t.Fatalf("end-to-end headers dropped: %v", got)
	}
	if got.Get("X-Custom-Conn") != "" || got.Get("Connection") != "" {
		t.Fatalf("hop-by-hop headers forwarded: %v", got)
	}
}

// TestGatewayForwardsEscapedPath: an escaped '?' in a job id stays in
// the path on the proxy hop instead of starting a query there.
func TestGatewayForwardsEscapedPath(t *testing.T) {
	var seen atomic.Value // *url.URL
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.URL)
		w.WriteHeader(http.StatusNotFound)
	}))
	t.Cleanup(backend.Close)
	g := newTestGateway(t, Config{Backends: []string{backend.URL}})
	g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/jobs/a%3Fb", nil))
	got, _ := seen.Load().(*url.URL)
	if got == nil {
		t.Fatal("the lookup never reached the backend")
	}
	if got.Path != "/v1/jobs/a?b" || got.RawQuery != "" {
		t.Fatalf("backend saw path %q and query %q, want path /v1/jobs/a?b and no query", got.Path, got.RawQuery)
	}
}
