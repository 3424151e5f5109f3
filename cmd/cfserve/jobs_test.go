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

// readResultDoc encodes an embedded result document and parses it back
// through graphio.ReadResult, the reader of cfreduce -out files.
func readResultDoc(t *testing.T, doc *graphio.ResultDoc) (*pslocal.ReduceResult, error) {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return graphio.ReadResult(bytes.NewReader(b))
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
	if final.Result == nil {
		t.Fatal("done job response carries no result document")
	}
	res, err := readResultDoc(t, final.Result)
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
	res, err := readResultDoc(t, got.Result)
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
	// Only a done job embeds its document; the others omit the key.
	if _, raw := fetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID, nil); bytes.Contains(raw, []byte(`"result"`)) {
		t.Errorf("cancelled job carries a result document: %s", raw)
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
		{"zero k", "?k=0"},
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

// TestDefaultSpellingsAreOneRequest pins the one query parser: every
// spelling of the default job is one job id, workers=0 resolves to the
// -max-workers cap on /v1/reduce and /v1/jobs alike, and seed=0 means the
// server's -seed on the synchronous solves too.
func TestDefaultSpellingsAreOneRequest(t *testing.T) {
	_, ts := newTestServer(t) // -max-workers 2, -seed 1
	body := quickstartBody(t)
	var first jobResponse
	for i, query := range []string{"", "?k=3", "?k=3&seed=1", "?k=3&seed=1&workers=1", "?oracle=implicit"} {
		sub, status := submitJob(t, ts.URL+"/v1/jobs"+query, body)
		want := http.StatusOK
		if i == 0 {
			first, want = sub, http.StatusAccepted
		}
		if status != want || sub.Job.ID != first.Job.ID {
			t.Errorf("submit %q = %d, id %.12s; want %d, id %.12s", query, status, sub.Job.ID, want, first.Job.ID)
		}
	}
	if want := (pslocal.JobParams{K: 3, Oracle: "implicit", Seed: 1, Workers: 1}); first.Job.Params != want {
		t.Errorf("job params = %+v, want every default explicit: %+v", first.Job.Params, want)
	}

	var red reduceResponse
	if resp := postInstance(t, ts.URL+"/v1/reduce?workers=0", body, &red); resp.StatusCode != http.StatusOK || red.Workers != 2 {
		t.Errorf("/v1/reduce?workers=0 = %d, workers %d; want 200, the cap 2", resp.StatusCode, red.Workers)
	}
	sub, status := submitJob(t, ts.URL+"/v1/jobs?workers=0", body)
	if status != http.StatusAccepted || sub.Job.Params.Workers != 2 {
		t.Errorf("/v1/jobs?workers=0 = %d, params %+v; want 202, workers the cap 2", status, sub.Job.Params)
	}

	// greedy-mindeg reads its seed, so seed=0 is answered from seed=1's
	// stored answer only if it means -seed.
	graphBody := []byte("graph 4 3\n0 1\n1 2\n2 3\n")
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/reduce?oracle=greedy-mindeg", body},
		{"/v1/maxis?oracle=greedy-mindeg", graphBody},
	} {
		var out json.RawMessage
		if resp := postInstance(t, ts.URL+tc.path+"&seed=1", tc.body, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s&seed=1 status %d: %s", tc.path, resp.StatusCode, out)
		}
		var again struct {
			Trace *pslocal.TraceSnapshot `json:"trace"`
		}
		if resp := postInstance(t, ts.URL+tc.path+"&seed=0&trace=1", tc.body, &again); resp.StatusCode != http.StatusOK || again.Trace == nil {
			t.Fatalf("%s&seed=0&trace=1 status %d, trace %v", tc.path, resp.StatusCode, again.Trace)
		}
		hit := false
		for _, sp := range again.Trace.Spans {
			hit = hit || sp.Name == "answer" && sp.Detail == "hit"
		}
		if !hit {
			t.Errorf("%s&seed=0 solved again: seed 0 is not the server's -seed 1", tc.path)
		}
	}
}

// awaitDoneEvent reads id's event stream until its done event.
func awaitDoneEvent(t *testing.T, baseURL, id string) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: "+string(pslocal.JobDone) {
			return
		}
	}
	t.Fatalf("job %.12s's event stream ended without a done event", id)
}

// TestInflightZeroAfterJobDone is the jobs half of the gauge audit: a
// job's solve leaves the admission gate before the manager announces
// done, so a scrape taken once the done event arrives reads
// pslocal_inflight 0, whether the job solved or was answered from the
// answer store.
func TestInflightZeroAfterJobDone(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	// implicit ignores the seed, so the second job, another id, is
	// answered from the first job's stored answer.
	for i, query := range []string{"?seed=1", "?seed=2"} {
		sub, status := submitJob(t, ts.URL+"/v1/jobs"+query, body)
		if status != http.StatusAccepted {
			t.Fatalf("submit %q status %d", query, status)
		}
		awaitDoneEvent(t, ts.URL, sub.Job.ID)
		e := scrape(t, ts.URL)
		if got := metric(t, e, "pslocal_inflight"); got != 0 {
			t.Errorf("job %q: pslocal_inflight = %v once done, want 0", query, got)
		}
		if got := metric(t, e, "pslocal_answer_hits_total"); got != float64(i) {
			t.Errorf("job %q: answer hits = %v, want %d", query, got, i)
		}
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
