package main

// drain_test.go covers the cluster-mode server lifecycle: the
// liveness/readiness split, /drainz, the refusal of new work while
// draining, the SIGTERM drain path finishing running jobs instead of
// abandoning them (the regression this file exists for), and the cache
// accounting of a request that reaches the server through the gateway.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pslocal"
	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/maxis"
)

// drainGateOracle signals each Solve entry and parks until released,
// then delegates to a real oracle — unlike blockOracle it lets the held
// job finish cleanly, which is what a drain test needs.
type drainGateOracle struct {
	mu      sync.Mutex
	eng     engine.Options
	started chan struct{}
	release chan struct{}
	inner   maxis.Oracle
}

func newDrainGateOracle(t *testing.T) *drainGateOracle {
	t.Helper()
	inner, err := maxis.Lookup("greedy-mindeg", 1)
	if err != nil {
		t.Fatal(err)
	}
	return &drainGateOracle{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		inner:   inner,
	}
}

func (o *drainGateOracle) Name() string { return "test-gate-drain" }

func (o *drainGateOracle) SetEngine(e engine.Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.eng = e
}

func (o *drainGateOracle) Solve(g *graph.Graph) ([]int32, error) {
	o.mu.Lock()
	ctx := o.eng.Context()
	o.mu.Unlock()
	select {
	case o.started <- struct{}{}:
	default:
	}
	select {
	case <-o.release:
		return o.inner.Solve(g)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

var drainGate = struct {
	once   sync.Once
	oracle *drainGateOracle
}{}

// sharedDrainGate registers the gate oracle once (the registry is global
// and permanent) and resets its release channel per call site.
func sharedDrainGate(t *testing.T) *drainGateOracle {
	t.Helper()
	drainGate.once.Do(func() {
		drainGate.oracle = newDrainGateOracle(t)
		maxis.MustRegister("test-gate-drain", func(int64) maxis.Oracle { return drainGate.oracle })
	})
	return drainGate.oracle
}

// getJSON GETs url and decodes the body, returning the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestReadyzDrainzLifecycle walks the drain state machine over HTTP:
// ready servers answer /readyz 200, /drainz flips readiness to 503 (and
// is idempotent), new solve and job submissions bounce with 503 +
// Retry-After, liveness and reads stay open throughout.
func TestReadyzDrainzLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	body := quickstartBody(t)

	var ready struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz before drain: %d %q", code, ready.Status)
	}

	for i, wantStarted := range []bool{true, false} {
		var drain struct {
			Draining bool `json:"draining"`
			Started  bool `json:"started"`
		}
		resp, err := http.Post(ts.URL+"/drainz", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&drain); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !drain.Draining || drain.Started != wantStarted {
			t.Fatalf("drainz call %d: status %d, draining %t, started %t (want started %t)",
				i, resp.StatusCode, drain.Draining, drain.Started, wantStarted)
		}
	}

	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness is not readiness)", code)
	}
	for _, path := range []string{"/v1/reduce?oracle=greedy-mindeg", "/v1/maxis?oracle=greedy-mindeg", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s while draining: %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s while draining: no Retry-After hint", path)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", nil); code != http.StatusOK {
		t.Errorf("GET /v1/jobs while draining: %d, want 200 (reads stay open)", code)
	}

	var drained struct {
		Status string           `json:"status"`
		Jobs   pslocal.JobStats `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &drained); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz: %d", code)
	}
	if drained.Status != "draining" || !drained.Jobs.Draining {
		t.Errorf("readyz while draining: status %q, jobs draining %t", drained.Status, drained.Jobs.Draining)
	}
	_ = s
}

// TestDrainFinishesRunningJob is the SIGTERM regression: the shutdown
// path used to stop the HTTP listener and exit, abandoning running jobs
// mid-solve. It now runs the same sequence as the signal handler — mark
// draining, then server.Drain — which must block until the held job
// finishes and persists, while refusing new submissions.
func TestDrainFinishesRunningJob(t *testing.T) {
	oracle := sharedDrainGate(t)
	s, ts := newTestServer(t)
	body := quickstartBody(t)

	var submitted struct {
		Job pslocal.JobInfo `json:"job"`
	}
	resp := postInstance(t, ts.URL+"/v1/jobs?oracle=test-gate-drain", body, &submitted)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d", resp.StatusCode)
	}
	select {
	case <-oracle.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started solving")
	}

	// The signal handler's sequence from main.go, minus the listener.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	s.draining.Store(true)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a job was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	refused, err := http.Post(ts.URL+"/v1/jobs?oracle=test-gate-drain", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", refused.StatusCode)
	}

	close(oracle.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var final struct {
		Job    pslocal.JobInfo `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+submitted.Job.ID, &final); code != http.StatusOK {
		t.Fatalf("job after drain: status %d", code)
	}
	if final.Job.State != pslocal.JobDone {
		t.Fatalf("job after drain: state %s (error %q), want done", final.Job.State, final.Job.Error)
	}
	if len(final.Result) == 0 {
		t.Fatal("drained job has no result document")
	}
}

// TestGatewayRequestCountsOneCacheLookup runs a real server behind the
// gateway: a cold reduce moves the backend's cache misses by exactly
// one, and the identical resubmission lands on the same backend and
// moves its hits by one.
func TestGatewayRequestCountsOneCacheLookup(t *testing.T) {
	s, ts := newTestServer(t)
	gw, err := pslocal.NewGateway(pslocal.GatewayConfig{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	body := quickstartBody(t)

	post := func(wantCache string) {
		t.Helper()
		var got struct {
			Instance instanceInfo `json:"instance"`
		}
		resp := postInstance(t, gts.URL+"/v1/reduce?k=3&oracle=greedy-mindeg", body, &got)
		if resp.StatusCode != http.StatusOK || got.Instance.Cache != wantCache {
			t.Fatalf("status %d, cache %q, want 200 %s", resp.StatusCode, got.Instance.Cache, wantCache)
		}
	}

	before := s.solver.CacheStats()
	post("miss")
	cold := s.solver.CacheStats()
	if d := cold.Misses - before.Misses; d != 1 || cold.Hits != before.Hits {
		t.Fatalf("cold request: misses +%d hits +%d, want +1 and +0", d, cold.Hits-before.Hits)
	}
	post("hit")
	hot := s.solver.CacheStats()
	if d := hot.Hits - cold.Hits; d != 1 || hot.Misses != cold.Misses {
		t.Fatalf("resubmission: hits +%d misses +%d, want +1 and +0", d, hot.Misses-cold.Misses)
	}
}

// TestDrainGraceSignals covers the SIGTERM grace machinery: a node
// nobody probes reports no readiness watcher (so main.go skips the
// wait), and once draining, drainEjectQuorum 503 probes close the
// drainEjected channel that lets the listener shut early.
func TestDrainGraceSignals(t *testing.T) {
	s, ts := newTestServer(t)

	if s.readyProbedWithin(time.Minute) {
		t.Fatal("readiness reported as probed before any /readyz request")
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	if !s.readyProbedWithin(time.Minute) {
		t.Fatal("readiness probe not recorded")
	}

	s.draining.Store(true)
	for i := 0; i < drainEjectQuorum; i++ {
		select {
		case <-s.drainEjected:
			t.Fatalf("drainEjected closed after %d probes, want %d", i, drainEjectQuorum)
		default:
		}
		if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
			t.Fatalf("draining /readyz = %d, want 503", code)
		}
	}
	select {
	case <-s.drainEjected:
	case <-time.After(2 * time.Second):
		t.Fatalf("drainEjected not closed after %d draining probes", drainEjectQuorum)
	}
}
