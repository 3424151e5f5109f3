package main

// jobs_test.go covers the /v1/jobs API surface: submit/poll/result,
// dedupe, restart recovery over a persistent store, cancellation, SSE
// events, list filtering, queue overflow, the job series on /metrics,
// and the JSON 404/405 envelope regression the satellite task pins.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pslocal"
	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/maxis"
)

var jobOracleSeq atomic.Int64

// blockingJobOracle parks Solve on its engine context; cancelling the
// job (or the server shutting down) releases it.
type blockingJobOracle struct {
	mu      sync.Mutex
	eng     engine.Options
	started chan struct{}
}

func (o *blockingJobOracle) Name() string { return "serve-jobs-block" }

func (o *blockingJobOracle) SetEngine(e engine.Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.eng = e
}

func (o *blockingJobOracle) Solve(*graph.Graph) ([]int32, error) {
	o.mu.Lock()
	ctx := o.eng.Context()
	o.mu.Unlock()
	select {
	case o.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// registerBlockingJobOracle installs a fresh blocking oracle under a
// unique name.
func registerBlockingJobOracle(t *testing.T) (*blockingJobOracle, string) {
	t.Helper()
	o := &blockingJobOracle{started: make(chan struct{}, 16)}
	name := fmt.Sprintf("serve-jobs-block-%d", jobOracleSeq.Add(1))
	maxis.MustRegister(name, func(int64) maxis.Oracle { return o })
	return o, name
}

// submitJob POSTs body to the jobs endpoint and decodes the envelope.
func submitJob(t *testing.T, url string, body []byte) (jobResponse, int) {
	t.Helper()
	var resp jobResponse
	httpResp := postInstance(t, url, body, &resp)
	return resp, httpResp.StatusCode
}

// pollJob GETs the job until it reaches a terminal state.
func pollJob(t *testing.T, baseURL, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var got jobResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			resp.Body.Close()
			t.Fatalf("decoding job: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job status %d", resp.StatusCode)
		}
		if got.Job.State.Terminal() {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never terminated (state %s)", id, got.Job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobSubmitPollResult is the core async flow: submit returns 202
// immediately, polling reaches done, and the response embeds a result
// document that parses back through ReadResult. An identical
// resubmission dedupes with a 200.
func TestJobSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	sub, status := submitJob(t, ts.URL+"/v1/jobs?k=3&oracle=greedy-mindeg&priority=high&label=quickstart", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if sub.Job.State != pslocal.JobQueued && sub.Job.State != pslocal.JobRunning && sub.Job.State != pslocal.JobDone {
		t.Fatalf("submitted job state = %q", sub.Job.State)
	}
	if len(sub.Job.ID) != 64 || sub.Job.Label != "quickstart" {
		t.Fatalf("submitted job = %+v", sub.Job)
	}

	final := pollJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != pslocal.JobDone || final.Job.Error != "" {
		t.Fatalf("final job = %+v", final.Job)
	}
	if final.Job.N != 16 || final.Job.M != 8 || final.Job.TotalColors == 0 {
		t.Errorf("job summary = %+v", final.Job)
	}
	if len(final.Result) == 0 {
		t.Fatal("done job response carries no result document")
	}
	res, err := graphio.ReadResult(bytes.NewReader(final.Result))
	if err != nil {
		t.Fatalf("embedded result does not parse: %v", err)
	}
	if res.TotalColors != final.Job.TotalColors || len(res.Phases) != final.Job.PhaseCount {
		t.Errorf("embedded result %+v disagrees with summary %+v", res, final.Job)
	}

	resub, status := submitJob(t, ts.URL+"/v1/jobs?k=3&oracle=greedy-mindeg&priority=high&label=quickstart", body)
	if status != http.StatusOK || resub.Job.ID != sub.Job.ID || resub.Job.State != pslocal.JobDone {
		t.Errorf("resubmission = %d %+v, want 200 dedupe onto the done job", status, resub.Job)
	}
}

// TestJobSurvivesRestart is the acceptance criterion: a job completed
// under one server instance is visible — result included — from a new
// server instance over the same store directory.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := config{maxWorkers: 2, maxInflight: 2, cacheEntries: 4, seed: 1, jobWorkers: 2, jobsDir: dir}
	s1, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	body := quickstartBody(t)
	sub, status := submitJob(t, ts1.URL+"/v1/jobs?k=3&oracle=greedy-mindeg", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if got := pollJob(t, ts1.URL, sub.Job.ID); got.Job.State != pslocal.JobDone {
		t.Fatalf("job before restart = %+v", got.Job)
	}
	ts1.Close()
	s1.Close()

	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	got := pollJob(t, ts2.URL, sub.Job.ID)
	if got.Job.State != pslocal.JobDone || !got.Job.Recovered {
		t.Fatalf("job after restart = %+v, want recovered done", got.Job)
	}
	res, err := graphio.ReadResult(bytes.NewReader(got.Result))
	if err != nil {
		t.Fatalf("recovered result does not parse: %v", err)
	}
	if res.TotalColors == 0 || len(res.Phases) == 0 {
		t.Errorf("recovered result degenerate: %+v", res)
	}
	// Resubmitting the identical request dedupes onto the stored job
	// instead of re-running it.
	resub, status := submitJob(t, ts2.URL+"/v1/jobs?k=3&oracle=greedy-mindeg", body)
	if status != http.StatusOK || resub.Job.ID != sub.Job.ID {
		t.Errorf("post-restart resubmission = %d %+v", status, resub.Job)
	}
}

func TestJobCancelRunning(t *testing.T) {
	oracle, name := registerBlockingJobOracle(t)
	_, ts := newTestServer(t)
	sub, status := submitJob(t, ts.URL+"/v1/jobs?oracle="+name, quickstartBody(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	select {
	case <-oracle.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	final := pollJob(t, ts.URL, sub.Job.ID)
	if final.Job.State != pslocal.JobCancelled {
		t.Fatalf("cancelled job = %+v", final.Job)
	}
	if len(final.Result) != 0 {
		t.Error("cancelled job carries a result document")
	}
}

func TestJobCancelUnknownIs404(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/doesnotexist", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var got map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || got["error"] == "" {
		t.Errorf("404 body not the JSON envelope: %v %v", got, err)
	}
}

// TestJobEventsSSE streams the lifecycle of a job: the event sequence
// must start at the subscription state and end with a terminal event,
// after which the server closes the stream.
func TestJobEventsSSE(t *testing.T) {
	oracle, name := registerBlockingJobOracle(t)
	_, ts := newTestServer(t)
	sub, status := submitJob(t, ts.URL+"/v1/jobs?oracle="+name, quickstartBody(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	select {
	case <-oracle.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Cancel mid-stream; the stream must deliver the cancelled event and
	// then end.
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Job.ID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	var events []string
	var payloads []pslocal.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, after)
		}
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			var ev pslocal.JobEvent
			if err := json.Unmarshal([]byte(after), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", after, err)
			}
			payloads = append(payloads, ev)
		}
	}
	if len(events) == 0 || events[len(events)-1] != string(pslocal.JobCancelled) {
		t.Fatalf("event sequence %v does not end in cancelled", events)
	}
	if events[0] != string(pslocal.JobRunning) {
		t.Errorf("first event %q, want the subscription-time state running", events[0])
	}
	last := payloads[len(payloads)-1]
	if last.ID != sub.Job.ID || !last.State.Terminal() {
		t.Errorf("last payload = %+v", last)
	}
}

func TestJobListFilters(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	done, status := submitJob(t, ts.URL+"/v1/jobs?k=3&label=good", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	failed, status := submitJob(t, ts.URL+"/v1/jobs?oracle=nonesuch&label=bad", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	pollJob(t, ts.URL, done.Job.ID)
	pollJob(t, ts.URL, failed.Job.ID)

	var list struct {
		Count int           `json:"count"`
		Jobs  []jobResponse `json:"jobs"`
	}
	get := func(query string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s status %d", query, resp.StatusCode)
		}
		list = struct {
			Count int           `json:"count"`
			Jobs  []jobResponse `json:"jobs"`
		}{}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
	}
	get("")
	if list.Count != 2 {
		t.Fatalf("unfiltered count = %d, want 2", list.Count)
	}
	get("?state=failed")
	if list.Count != 1 || list.Jobs[0].Job.ID != failed.Job.ID || list.Jobs[0].Job.Error == "" {
		t.Errorf("failed filter = %+v", list)
	}
	get("?label=good")
	if list.Count != 1 || list.Jobs[0].Job.ID != done.Job.ID {
		t.Errorf("label filter = %+v", list)
	}
	get("?limit=1")
	if list.Count != 1 {
		t.Errorf("limit filter count = %d", list.Count)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus state filter status = %d, want 400", resp.StatusCode)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	for _, tc := range []struct{ name, query string }{
		{"bad priority", "?priority=urgent"},
		{"bad deadline", "?deadline_ms=-5"},
		{"bad retries", "?max_retries=-1"},
		{"bad k", "?k=-2"},
		{"bad format", "?format=xml"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got map[string]any
			resp := postInstance(t, ts.URL+"/v1/jobs"+tc.query, body, &got)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", resp.StatusCode, got)
			}
		})
	}
	// An empty body is rejected at submit, not at run.
	var got map[string]any
	if resp := postInstance(t, ts.URL+"/v1/jobs", nil, &got); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body status = %d, want 400", resp.StatusCode)
	}
}

func TestJobQueueFullReturns503(t *testing.T) {
	oracle, name := registerBlockingJobOracle(t)
	_, ts := newTestServerConfig(t, config{
		maxWorkers: 2, maxInflight: 4, cacheEntries: 4, seed: 1,
		jobWorkers: 1, jobQueueCap: 1,
	})
	body := quickstartBody(t)
	blocker, status := submitJob(t, ts.URL+"/v1/jobs?oracle="+name, body)
	if status != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", status)
	}
	select {
	case <-oracle.started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never started")
	}
	if _, status := submitJob(t, ts.URL+"/v1/jobs?k=2", body); status != http.StatusAccepted {
		t.Fatalf("filler submit status %d", status)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?k=4", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	// Unblock by cancelling the blocker.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.Job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func TestStatzMergesJobCounters(t *testing.T) {
	_, ts := newTestServer(t)
	sub, status := submitJob(t, ts.URL+"/v1/jobs?k=3", quickstartBody(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	pollJob(t, ts.URL, sub.Job.ID)
	e := scrape(t, ts.URL)
	for name, want := range map[string]float64{
		"pslocal_jobs_submitted_total": 1,
		"pslocal_jobs_completed_total": 1,
		"pslocal_jobs_workers":         2,
		"pslocal_jobs_queue_depth":     0,
		"pslocal_jobs_running":         0,
	} {
		if got := metric(t, e, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestNotFoundAndMethodNotAllowedAreJSON is the satellite regression:
// routes the mux cannot match must answer with the service's JSON error
// envelope, not net/http's plain text.
func TestNotFoundAndMethodNotAllowedAreJSON(t *testing.T) {
	s, ts := newTestServer(t)
	failuresBefore := s.met.failures.Value()
	for _, tc := range []struct {
		name, method, path string
		wantStatus         int
	}{
		{"unknown path", http.MethodGet, "/nope", http.StatusNotFound},
		{"wrong method on reduce", http.MethodGet, "/v1/reduce", http.StatusMethodNotAllowed},
		{"wrong method on healthz", http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{"wrong method on jobs id", http.MethodPut, "/v1/jobs/abc", http.StatusMethodNotAllowed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(""))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("content type = %q, want application/json", ct)
			}
			var got map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatalf("body is not JSON: %v", err)
			}
			if got["error"] == "" {
				t.Error("envelope carries no error message")
			}
			if tc.wantStatus == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 lost its Allow header")
			}
		})
	}
	if got := s.met.failures.Value(); got != failuresBefore+4 {
		t.Errorf("failures counter advanced by %d, want 4", got-failuresBefore)
	}
}
