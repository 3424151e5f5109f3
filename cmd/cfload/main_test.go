package main

// main_test.go drives run() end to end against a stub cfserve: a
// recorded burst, byte-identical summaries across two replays of the
// trace (the acceptance criterion for `cfload -replay`), the custom
// -mix path, and the failure modes (down server, malformed trace).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pslocal/internal/loadgen"
)

func stubServer(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]bool{}
	jobs := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		sum := sha256.Sum256(body)
		hexSum := hex.EncodeToString(sum[:])
		key := "sha256:" + hexSum[:16]
		mu.Lock()
		cache := "miss"
		if seen[key] {
			cache = "hit"
		}
		seen[key] = true
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/reduce":
			fmt.Fprintf(w, `{"instance":{"cache":%q,"key":%q},"verified":true,"result":{"total_colors":%d}}`,
				cache, key, int(sum[0])%5+1)
		case "/v1/maxis":
			fmt.Fprintf(w, `{"instance":{"cache":%q,"key":%q},"verified":true,"size":%d}`,
				cache, key, int(sum[1])%9+1)
		case "/v1/jobs":
			mu.Lock()
			jobs++
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"job":{"id":%q,"state":"queued"}}`, hexSum)
		case "/metrics":
			mu.Lock()
			j := jobs
			mu.Unlock()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			for _, c := range []struct {
				name  string
				value float64
			}{
				{"pslocal_jobs_finished_total", float64(j)},
				{"pslocal_jobs_started_total", float64(j)},
				{"pslocal_jobs_wait_seconds_total", float64(j) * 0.375},
				{"pslocal_jobs_run_seconds_total", float64(j) * 0.875},
			} {
				fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", c.name, c.name, c.value)
			}
		default:
			http.Error(w, `{"error":"no route"}`, http.StatusNotFound)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err = run(context.Background(), args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestRecordThenReplayByteIdentical(t *testing.T) {
	srv := stubServer(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "burst.trace")
	perf := filepath.Join(dir, "perf.json")

	out0, errText, err := runCLI(t,
		"-addr", srv.URL, "-requests", "80", "-rate", "4000", "-seed", "7",
		"-hit-ratio", "0.5", "-record", trace, "-perf-out", perf)
	if err != nil {
		t.Fatalf("record run: %v\nstderr:\n%s", err, errText)
	}
	var sum loadgen.Summary
	if err := json.Unmarshal([]byte(out0), &sum); err != nil {
		t.Fatalf("stdout is not a summary: %v\n%s", err, out0)
	}
	if sum.OK != 80 || sum.Requests != 80 {
		t.Fatalf("unexpected summary: %+v", sum)
	}
	if !strings.Contains(errText, "latency ms") || !strings.Contains(errText, "SLO attained") {
		t.Fatalf("human report missing from stderr:\n%s", errText)
	}

	var p loadgen.Perf
	data, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("perf-out is not a perf report: %v", err)
	}
	if p.ThroughputRPS <= 0 || p.Latency.P99MS <= 0 || len(p.Classes) != 3 {
		t.Fatalf("perf report implausible: %+v", p)
	}
	if p.Jobs == nil || p.Jobs.Started == 0 {
		t.Fatalf("jobs split missing from perf report: %+v", p.Jobs)
	}

	// The acceptance criterion: replaying the trace twice produces
	// byte-identical summary JSON on stdout.
	out1, _, err := runCLI(t, "-addr", srv.URL, "-replay", trace, "-seed", "1")
	if err != nil {
		t.Fatalf("replay 1: %v", err)
	}
	out2, _, err := runCLI(t, "-addr", srv.URL, "-replay", trace, "-seed", "1")
	if err != nil {
		t.Fatalf("replay 2: %v", err)
	}
	if out1 != out2 {
		t.Fatalf("replay summaries differ:\n%s\n---\n%s", out1, out2)
	}
	var rsum loadgen.Summary
	if err := json.Unmarshal([]byte(out1), &rsum); err != nil {
		t.Fatal(err)
	}
	if rsum.TraceSHA256 != sum.TraceSHA256 {
		t.Fatal("replay ran a different schedule than it recorded")
	}
	if rsum.OutcomeSHA256 != sum.OutcomeSHA256 {
		t.Fatal("replay outcomes diverge from the recording")
	}
}

func TestCustomMix(t *testing.T) {
	srv := stubServer(t)
	dir := t.TempDir()
	mix := filepath.Join(dir, "mix.json")
	classes := []loadgen.Class{{
		Name: "only-maxis", Weight: 1, Endpoint: loadgen.EndpointMaxIS, Kind: loadgen.KindGraph,
		Gen: "cycle", N: 16, Formats: []string{"dimacs"},
		Params: loadgen.Params{Oracle: "greedy-mindeg"}, SLOMillis: 200,
	}}
	data, err := json.Marshal(classes)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mix, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "-addr", srv.URL, "-requests", "10", "-rate", "4000",
		"-hit-ratio", "0", "-mix", mix)
	if err != nil {
		t.Fatalf("custom mix run: %v", err)
	}
	var sum loadgen.Summary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.ByClass["only-maxis"] != 10 || sum.ByEndpoint["maxis"] != 10 {
		t.Fatalf("mix not honoured: %+v", sum)
	}
}

func TestServerUnreachableFails(t *testing.T) {
	_, _, err := runCLI(t, "-addr", "http://127.0.0.1:1", "-requests", "3",
		"-rate", "4000", "-timeout", "2s")
	if err == nil {
		t.Fatal("run against a dead server reported success")
	}
}

func TestBadInputs(t *testing.T) {
	srv := stubServer(t)
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "-addr", srv.URL, "-replay", garbage); err == nil {
		t.Fatal("malformed trace accepted")
	}
	if _, _, err := runCLI(t, "-addr", srv.URL, "-replay", filepath.Join(dir, "missing.trace")); err == nil {
		t.Fatal("missing trace accepted")
	}
	if _, _, err := runCLI(t, "-addr", srv.URL, "-requests", "0"); err == nil {
		t.Fatal("zero-request spec accepted")
	}
	if _, _, err := runCLI(t, "-addr", srv.URL, "-arrival", "bursty"); err == nil {
		t.Fatal("unknown arrival distribution accepted")
	}
	if _, _, err := runCLI(t, "-addr", srv.URL, "stray-arg"); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}
