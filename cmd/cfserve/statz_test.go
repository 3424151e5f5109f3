package main

// statz_test.go covers the latency histograms on /metrics: per-endpoint
// tracks populate as requests land, the solve samples split into
// cache_hit vs cache_miss (a cold parse followed by a hot resubmission
// must feed one sample into each), job submissions feed jobs_submit,
// and the job wait/run counters cfload reads move with a finished job.

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"pslocal/internal/obs"
)

// scrape fetches /metrics and parses it with the exposition reader,
// which also holds it to the format's rules (cumulative buckets,
// +Inf == _count, no duplicate series).
func scrape(t *testing.T, baseURL string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	e, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return e
}

// metric reads one series from a scrape, failing when it is absent.
func metric(t *testing.T, e *obs.Exposition, name string, labels ...obs.Label) float64 {
	t.Helper()
	v, ok := e.Value(name, labels...)
	if !ok {
		t.Fatalf("series %s%v missing from /metrics", name, labels)
	}
	return v
}

// trackCount reads one latency track's sample count.
func trackCount(t *testing.T, e *obs.Exposition, track string) float64 {
	t.Helper()
	return metric(t, e, "pslocal_request_duration_seconds_count", obs.L("track", track))
}

func TestStatzLatencyTracks(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)

	// Before any traffic every track exists and is empty.
	e := scrape(t, ts.URL)
	for _, track := range []string{"reduce", "maxis", "jobs_submit", "cache_hit", "cache_miss"} {
		if n := trackCount(t, e, track); n != 0 {
			t.Fatalf("track %q nonzero before traffic: %v", track, n)
		}
	}

	// Cold reduce then identical resubmission: one miss, one hit.
	var out json.RawMessage
	resp := postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold reduce status %d", resp.StatusCode)
	}
	resp = postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm reduce status %d", resp.StatusCode)
	}

	e = scrape(t, ts.URL)
	if got := trackCount(t, e, "reduce"); got != 2 {
		t.Fatalf("reduce count = %v, want 2", got)
	}
	if got := trackCount(t, e, "cache_miss"); got != 1 {
		t.Fatalf("cache_miss count = %v, want 1 (the cold parse)", got)
	}
	if got := trackCount(t, e, "cache_hit"); got != 1 {
		t.Fatalf("cache_hit count = %v, want 1 (the resubmission)", got)
	}
	for _, track := range []string{"reduce", "cache_miss"} {
		if sum := metric(t, e, "pslocal_request_duration_seconds_sum", obs.L("track", track)); sum <= 0 {
			t.Fatalf("track %q has no timing: sum %v", track, sum)
		}
	}

	// A failing request must not touch the histograms.
	resp, err := http.Post(ts.URL+"/v1/reduce?k=0", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k status %d", resp.StatusCode)
	}
	if got := trackCount(t, scrape(t, ts.URL), "reduce"); got != 2 {
		t.Fatalf("failed request entered the reduce histogram: count %v", got)
	}

	// A job submission lands in jobs_submit, not in the solve tracks.
	var jobOut struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	resp = postInstance(t, ts.URL+"/v1/jobs?k=2&oracle=greedy-mindeg", body, &jobOut)
	if resp.StatusCode != http.StatusAccepted || jobOut.Job.ID == "" {
		t.Fatalf("job submit: status %d, %+v", resp.StatusCode, jobOut)
	}
	e = scrape(t, ts.URL)
	if got := trackCount(t, e, "jobs_submit"); got != 1 {
		t.Fatalf("jobs_submit count = %v, want 1", got)
	}
	if got := trackCount(t, e, "reduce"); got != 2 {
		t.Fatalf("job submission leaked into the reduce track: count %v", got)
	}
	// The job wait/run counters cfload reads for its split move with
	// the finished job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		e = scrape(t, ts.URL)
		if metric(t, e, "pslocal_jobs_finished_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if metric(t, e, "pslocal_jobs_started_total") < 1 ||
		metric(t, e, "pslocal_jobs_wait_seconds_total") < 0 ||
		metric(t, e, "pslocal_jobs_run_seconds_total") < 0 {
		t.Fatal("jobs split implausible")
	}
}

func TestStatzMaxISLatencyTrack(t *testing.T) {
	_, ts := newTestServer(t)
	// A small path graph in the native edge-list form.
	body := []byte("graph 4 3\n0 1\n1 2\n2 3\n")
	var out json.RawMessage
	resp := postInstance(t, ts.URL+"/v1/maxis?oracle=greedy-mindeg", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maxis status %d: %s", resp.StatusCode, out)
	}
	e := scrape(t, ts.URL)
	if got := trackCount(t, e, "maxis"); got != 1 {
		t.Fatalf("maxis count = %v, want 1", got)
	}
	if got := trackCount(t, e, "cache_miss"); got != 1 {
		t.Fatalf("maxis cold solve missing from cache_miss: count %v", got)
	}
}
