package loadgen

// run_test.go exercises the open-loop runner against a deterministic
// stub of cfserve's surface, and pins the replay determinism contract:
// executing the same trace twice yields byte-identical outcome
// summaries, even across servers with different cache warmth.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// stubServe is a deterministic stand-in for cfserve: every response
// field the runner parses is a pure function of the request body hash,
// except the cache disposition, which (like the real server) depends on
// what the stub has seen before.
func stubServe(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	seen := map[string]bool{}
	var jobsStarted, jobsFinished int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, `{"error":"read"}`, http.StatusBadRequest)
			return
		}
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
				cache, key, int(sum[0])%7+1)
		case "/v1/maxis":
			fmt.Fprintf(w, `{"instance":{"cache":%q,"key":%q},"verified":true,"size":%d}`,
				cache, key, int(sum[1])%9+1)
		case "/v1/jobs":
			mu.Lock()
			jobsStarted++
			jobsFinished++
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"job":{"id":%q,"state":"queued"}}`, hexSum)
		case "/metrics":
			mu.Lock()
			s, f := jobsStarted, jobsFinished
			mu.Unlock()
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fmt.Fprintf(w, "# TYPE pslocal_jobs_finished_total counter\npslocal_jobs_finished_total %d\n"+
				"# TYPE pslocal_jobs_started_total counter\npslocal_jobs_started_total %d\n"+
				"# TYPE pslocal_jobs_wait_seconds_total counter\npslocal_jobs_wait_seconds_total %g\n"+
				"# TYPE pslocal_jobs_run_seconds_total counter\npslocal_jobs_run_seconds_total %g\n",
				f, s, float64(s)*0.5, float64(f)*1.25)
		default:
			http.Error(w, `{"error":"no route"}`, http.StatusNotFound)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// runOnce executes tr against a fresh stub and returns the report.
func runOnce(t *testing.T, tr *Trace) *Report {
	t.Helper()
	srv := stubServe(t)
	c := &Client{BaseURL: srv.URL, Speed: 0,
		HTTP: &http.Client{Timeout: 10 * time.Second}}
	rep, err := c.Run(context.Background(), tr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func planSmall(t *testing.T, seed int64) *Trace {
	t.Helper()
	spec := testSpec(seed)
	spec.Requests = 60
	spec.Rate = 5000
	tr, err := Plan(spec)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return tr
}

func TestRunFillsOutcomes(t *testing.T) {
	tr := planSmall(t, 3)
	rep := runOnce(t, tr)
	if rep.Summary.Requests != len(tr.Records) {
		t.Fatalf("summary covers %d requests, want %d", rep.Summary.Requests, len(tr.Records))
	}
	if rep.Summary.OK != len(tr.Records) {
		t.Fatalf("%d of %d requests ok: %+v", rep.Summary.OK, len(tr.Records), rep.Summary)
	}
	for i := range tr.Records {
		o := tr.Records[i].Outcome
		if o == nil {
			t.Fatalf("record %d has no outcome", i)
		}
		if !o.OK || o.LatencyUS <= 0 || o.Key == "" {
			t.Fatalf("record %d outcome implausible: %+v", i, o)
		}
	}
	if rep.Perf.Latency.P50MS <= 0 || rep.Perf.Latency.P99MS < rep.Perf.Latency.P50MS {
		t.Fatalf("implausible quantiles: %+v", rep.Perf.Latency)
	}
	if rep.Perf.ThroughputRPS <= 0 {
		t.Fatalf("no throughput: %+v", rep.Perf)
	}
	// The spec reuses instances (HitRatio 0.5), so the stub must have
	// reported some hits and some misses.
	if rep.Perf.CacheHits == 0 || rep.Perf.CacheMisses == 0 {
		t.Fatalf("cache split missing: hits=%d misses=%d", rep.Perf.CacheHits, rep.Perf.CacheMisses)
	}
	// Every class carries an SLO in testSpec, so attainment is reported.
	if rep.Perf.SLO.Eligible != len(tr.Records) || rep.Perf.SLO.Attained == 0 {
		t.Fatalf("SLO report implausible: %+v", rep.Perf.SLO)
	}
	// The jobs class ran, so the delta of the /metrics job counters must
	// carry the split.
	if rep.Perf.Jobs == nil || rep.Perf.Jobs.Started == 0 {
		t.Fatalf("jobs wait/run split missing: %+v", rep.Perf.Jobs)
	}
	if rep.Perf.Jobs.WaitMeanMS != 500 || rep.Perf.Jobs.RunMeanMS != 1250 {
		t.Fatalf("split means wrong: %+v", rep.Perf.Jobs)
	}
}

// TestReplayDeterministicSummary is the golden determinism test: the
// same trace replayed twice — against servers with different cache
// warmth — produces byte-identical summary JSON.
func TestReplayDeterministicSummary(t *testing.T) {
	tr := planSmall(t, 8)
	// Recording run fills outcomes; replay re-executes the same
	// schedule (outcomes get overwritten).
	runOnce(t, tr)

	rep1 := runOnce(t, tr)
	sum1, err := json.MarshalIndent(rep1.Summary, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rep2 := runOnce(t, tr)
	sum2, err := json.MarshalIndent(rep2.Summary, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(sum1) != string(sum2) {
		t.Fatalf("replay summaries differ:\n%s\n---\n%s", sum1, sum2)
	}
	if rep1.Summary.OutcomeSHA256 == "" || rep1.Summary.TraceSHA256 == "" {
		t.Fatalf("summary digests missing: %+v", rep1.Summary)
	}

	// A warmed server changes cache dispositions but must not change
	// the deterministic summary: run again on a shared server.
	srv := stubServe(t)
	c := &Client{BaseURL: srv.URL, Speed: 0}
	repA, err := c.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sumA, _ := json.Marshal(repA.Summary)
	repB, err := c.Run(context.Background(), tr) // fully warm now
	if err != nil {
		t.Fatal(err)
	}
	sumB, _ := json.Marshal(repB.Summary)
	if string(sumA) != string(sumB) {
		t.Fatalf("cache warmth leaked into the summary:\n%s\n---\n%s", sumA, sumB)
	}
	if repB.Perf.CacheHits <= repA.Perf.CacheHits {
		t.Fatalf("warm run should see more hits (%d vs %d)", repB.Perf.CacheHits, repA.Perf.CacheHits)
	}
}

// TestRecordReplayRoundTrip drives the full record → write → read →
// replay path the CLI uses.
func TestRecordReplayRoundTrip(t *testing.T) {
	tr := planSmall(t, 13)
	runOnce(t, tr)

	var buf1 struct{ b []byte }
	{
		var w writerBuf
		if err := WriteTrace(&w, tr); err != nil {
			t.Fatal(err)
		}
		buf1.b = w.b
	}
	loaded, err := ReadTrace(newReaderBuf(buf1.b))
	if err != nil {
		t.Fatalf("ReadTrace of recorded run: %v", err)
	}
	if loaded.scheduleSHA256() != tr.scheduleSHA256() {
		t.Fatal("loaded schedule fingerprint differs")
	}
	repA := runOnce(t, loaded)
	repB := runOnce(t, loaded)
	a, _ := json.Marshal(repA.Summary)
	b, _ := json.Marshal(repB.Summary)
	if string(a) != string(b) {
		t.Fatalf("replays of a recorded trace differ:\n%s\n---\n%s", a, b)
	}
}

// writerBuf/readerBuf are tiny io adapters (avoiding a bytes import
// dance in the test above).
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

type readerBuf struct {
	b []byte
	i int
}

func newReaderBuf(b []byte) *readerBuf { return &readerBuf{b: b} }

func (r *readerBuf) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

func TestRunPacing(t *testing.T) {
	// Three arrivals 30ms apart at speed 1 must take ≥ 60ms; at speed 0
	// the same schedule runs in well under that.
	mk := func() *Trace {
		return &Trace{Seed: 1, Records: []Record{
			{Seq: 0, AtUS: 0, Class: "c", Endpoint: EndpointMaxIS, Format: "edgelist",
				Inst: InstSpec{Kind: KindGraph, Gen: "cycle", N: 8, Seed: 1}},
			{Seq: 1, AtUS: 30000, Class: "c", Endpoint: EndpointMaxIS, Format: "edgelist",
				Inst: InstSpec{Kind: KindGraph, Gen: "cycle", N: 8, Seed: 2}},
			{Seq: 2, AtUS: 60000, Class: "c", Endpoint: EndpointMaxIS, Format: "edgelist",
				Inst: InstSpec{Kind: KindGraph, Gen: "cycle", N: 8, Seed: 3}},
		}}
	}
	srv := stubServe(t)
	paced := &Client{BaseURL: srv.URL, Speed: 1}
	started := time.Now()
	if _, err := paced.Run(context.Background(), mk()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(started); d < 55*time.Millisecond {
		t.Fatalf("paced run finished in %v, schedule spans 60ms", d)
	}
	fast := &Client{BaseURL: srv.URL, Speed: 0}
	started = time.Now()
	if _, err := fast.Run(context.Background(), mk()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(started); d > 5*time.Second {
		t.Fatalf("unpaced run took %v", d)
	}
}

// TestRunClockStartsAtScheduledInstant holds the runner to its timing
// contract: four requests scheduled at one instant through a one-slot
// in-flight cap against a server holding each for 20ms queue behind one
// another, and that queueing is part of their latency.
func TestRunClockStartsAtScheduledInstant(t *testing.T) {
	const hold = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(hold)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"instance":{"cache":"miss","key":"k"},"verified":true,"size":1}`)
	}))
	t.Cleanup(srv.Close)
	for _, speed := range []float64{0, 1} {
		tr := &Trace{Seed: 1}
		for i := 0; i < 4; i++ {
			tr.Records = append(tr.Records, Record{Seq: i, AtUS: 0, Class: "c", Endpoint: EndpointMaxIS,
				Format: "edgelist", Inst: InstSpec{Kind: KindGraph, Gen: "cycle", N: 8, Seed: int64(i + 1)}})
		}
		c := &Client{BaseURL: srv.URL, Speed: speed, MaxInflight: 1}
		if _, err := c.Run(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		lat := make([]int64, 0, len(tr.Records))
		for _, rec := range tr.Records {
			if !rec.Outcome.OK {
				t.Fatalf("speed %v: record %d failed: %+v", speed, rec.Seq, rec.Outcome)
			}
			lat = append(lat, rec.Outcome.LatencyUS)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		for k, us := range lat {
			if want := int64(k+1) * hold.Microseconds(); us < want {
				t.Errorf("speed %v: request %d of 4 reported %dus, want at least %dus", speed, k+1, us, want)
			}
		}
	}
}

func TestRunServerDown(t *testing.T) {
	tr := &Trace{Seed: 1, Records: []Record{
		{Seq: 0, AtUS: 0, Class: "c", Endpoint: EndpointReduce, Format: "edgelist",
			Inst: InstSpec{Kind: KindHypergraph, Gen: "planted", N: 10, M: 4, K: 3, SizeLo: 3, SizeHi: 4, Seed: 1}},
	}}
	c := &Client{BaseURL: "http://127.0.0.1:1", Speed: 0,
		HTTP: &http.Client{Timeout: 2 * time.Second}}
	rep, err := c.Run(context.Background(), tr)
	if err != nil {
		t.Fatalf("a down server must not fail the run: %v", err)
	}
	if rep.Summary.OK != 0 || rep.Summary.Failed != 1 {
		t.Fatalf("expected one failed outcome: %+v", rep.Summary)
	}
	if tr.Records[0].Outcome.Err == "" {
		t.Fatal("transport error not recorded")
	}
}
