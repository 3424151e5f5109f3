package main

// obs_test.go covers the observability surface end to end over HTTP:
// GET /metrics serves a Prometheus exposition carrying the serve-path
// families, ?trace=1 embeds a span tree whose children account
// for no more than the root's duration, GET /v1/traces retains finished
// traces newest-first, and every response echoes a request id — the
// caller's when valid, a fresh one otherwise.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"pslocal"
)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	var out json.RawMessage
	if resp := postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("reduce status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 text exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE pslocal_requests_total counter",
		"# TYPE pslocal_request_duration_seconds histogram",
		`pslocal_solves_total{endpoint="reduce"} 1`,
		`pslocal_request_duration_seconds_count{track="reduce"} 1`,
		"pslocal_cache_misses_total 1",
		"pslocal_jobs_submitted_total 0",
		"pslocal_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// sumTopLevel adds the top-level span durations of a trace snapshot.
func sumTopLevel(spans []pslocal.TraceSpanSnapshot) int64 {
	var total int64
	for _, sp := range spans {
		total += sp.DurUS
	}
	return total
}

func TestTraceEmbedding(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)

	// Without ?trace=1 the response carries no trace.
	var plain reduceResponse
	if resp := postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &plain); resp.StatusCode != http.StatusOK {
		t.Fatalf("reduce status %d", resp.StatusCode)
	}
	if plain.Trace != nil {
		t.Fatal("trace embedded without ?trace=1")
	}

	var traced reduceResponse
	if resp := postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg&trace=1", body, &traced); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced reduce status %d", resp.StatusCode)
	}
	tr := traced.Trace
	if tr == nil {
		t.Fatal("?trace=1 response carries no trace")
	}
	if tr.Op != "reduce" {
		t.Errorf("root op = %q, want reduce", tr.Op)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	if got := sumTopLevel(tr.Spans); got > tr.DurUS {
		t.Errorf("top-level span durations sum to %dus > root %dus", got, tr.DurUS)
	}
	names := make(map[string]bool)
	var phase *pslocal.TraceSpanSnapshot
	for i := range tr.Spans {
		names[tr.Spans[i].Name] = true
		if tr.Spans[i].Name == "phase" {
			phase = &tr.Spans[i]
		}
	}
	for _, want := range []string{"gate_wait", "cache_lookup", "phase"} {
		if !names[want] {
			t.Errorf("trace lacks a %q span (got %v)", want, names)
		}
	}
	if phase == nil {
		t.Fatal("no phase span")
	}
	if phase.Phase != 1 || phase.N <= 0 || phase.M <= 0 || phase.ISSize <= 0 {
		t.Errorf("phase span not annotated: %+v", phase)
	}
	var child []string
	for _, c := range phase.Children {
		child = append(child, c.Name)
	}
	if len(child) != 2 || child[0] != "csr_build" || child[1] != "oracle_solve" {
		t.Errorf("phase children = %v, want [csr_build oracle_solve]", child)
	}
}

func TestTracesEndpointRetainsNewestFirst(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	var out json.RawMessage
	for i := 0; i < 3; i++ {
		if resp := postInstance(t, ts.URL+"/v1/reduce?k=2&oracle=greedy-mindeg", body, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("reduce %d status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/traces?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Total  uint64                  `json:"total"`
		Count  int                     `json:"count"`
		Traces []pslocal.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 3 || doc.Count != 2 || len(doc.Traces) != 2 {
		t.Fatalf("total=%d count=%d len=%d, want 3/2/2", doc.Total, doc.Count, len(doc.Traces))
	}
	for _, snap := range doc.Traces {
		if snap.Op != "reduce" {
			t.Errorf("retained op = %q, want reduce", snap.Op)
		}
	}

	if r2, err := http.Get(ts.URL + "/v1/traces?limit=bogus"); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("bad limit answered %d, want 400", r2.StatusCode)
		}
	}
}

func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t)

	get := func(header string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(pslocal.RequestIDHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get(pslocal.RequestIDHeader)
	}

	if got := get("smoke-req-42"); got != "smoke-req-42" {
		t.Errorf("valid id not echoed: got %q", got)
	}
	if got := get(""); !pslocal.ValidRequestID(got) {
		t.Errorf("no id supplied, response carries invalid id %q", got)
	}
	if got := get("bad id!"); got == "bad id!" || !pslocal.ValidRequestID(got) {
		t.Errorf("invalid id not replaced: got %q", got)
	}
}
