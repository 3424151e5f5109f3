package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pslocal"
	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/maxis"
	"pslocal/internal/obs"
)

// newTestServer returns a started httptest server over a fresh service
// instance with small, deterministic limits (in-memory job store).
func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, config{maxWorkers: 2, maxInflight: 2, cacheEntries: 4, seed: 1, jobWorkers: 2})
}

// newTestServerConfig is newTestServer with an explicit config (jobs
// persistence tests point jobsDir at a temp directory).
func newTestServerConfig(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// quickstartBody reads the instance the README curl example posts.
func quickstartBody(t *testing.T) []byte {
	t.Helper()
	body, err := os.ReadFile("testdata/quickstart.json")
	if err != nil {
		t.Fatalf("reading testdata: %v", err)
	}
	return body
}

// postInstance POSTs body to url and decodes the JSON response into out.
func postInstance(t *testing.T, url string, body []byte, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp
}

// reduceDoc mirrors the graphio reduction-result schema for assertions.
type reduceDoc struct {
	Type        string `json:"type"`
	K           int    `json:"k"`
	TotalColors int    `json:"total_colors"`
	Phases      []struct {
		Phase       int `json:"phase"`
		EdgesBefore int `json:"edges_before"`
		ISSize      int `json:"is_size"`
	} `json:"phases"`
	Multicoloring [][]int32 `json:"multicoloring"`
}

// TestReduceColdThenCacheHit covers the acceptance criterion: a cold
// submission parses, reduces and verifies; resubmitting the identical
// body is a cache hit with the same verified result and phase statistics.
func TestReduceColdThenCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	url := ts.URL + "/v1/reduce?k=3&oracle=greedy-mindeg&workers=2"

	for i, wantCache := range []string{"miss", "hit"} {
		var got struct {
			Instance instanceInfo `json:"instance"`
			Oracle   string       `json:"oracle"`
			Verified bool         `json:"verified"`
			Result   reduceDoc    `json:"result"`
		}
		resp := postInstance(t, url, body, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		if got.Instance.Cache != wantCache {
			t.Errorf("submission %d: cache = %q, want %q", i, got.Instance.Cache, wantCache)
		}
		if !got.Verified {
			t.Errorf("submission %d: result not verified", i)
		}
		if got.Oracle != "greedy-mindeg" {
			t.Errorf("submission %d: oracle = %q", i, got.Oracle)
		}
		if len(got.Result.Phases) == 0 {
			t.Fatalf("submission %d: no phase statistics", i)
		}
		for _, ph := range got.Result.Phases {
			if ph.ISSize < 1 || ph.EdgesBefore < 1 {
				t.Errorf("submission %d: degenerate phase stat %+v", i, ph)
			}
		}
		if got.Instance.N != 16 || got.Instance.M != 8 {
			t.Errorf("submission %d: instance = %+v", i, got.Instance)
		}
		if len(got.Result.Multicoloring) != 16 {
			t.Errorf("submission %d: multicoloring over %d vertices, want 16", i, len(got.Result.Multicoloring))
		}
	}
}

// TestReduceOracleSelection exercises the per-request oracle choice,
// including a portfolio raced on the request's worker pool.
func TestReduceOracleSelection(t *testing.T) {
	_, ts := newTestServer(t)
	body := quickstartBody(t)
	for _, oracle := range []string{"implicit", "exact", "clique-removal", "portfolio:greedy-mindeg,greedy-random,clique-removal"} {
		var got struct {
			Oracle   string    `json:"oracle"`
			Verified bool      `json:"verified"`
			Result   reduceDoc `json:"result"`
		}
		url := fmt.Sprintf("%s/v1/reduce?k=3&workers=2&oracle=%s", ts.URL, oracle)
		resp := postInstance(t, url, body, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("oracle %s: status %d", oracle, resp.StatusCode)
		}
		if got.Oracle != oracle || !got.Verified {
			t.Errorf("oracle %s: echoed %q, verified %v", oracle, got.Oracle, got.Verified)
		}
	}
}

func TestReduceRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, url, body string
	}{
		{"unknown oracle", "/v1/reduce?oracle=nonesuch", `{"type":"hypergraph","n":2,"edges":[[0,1]]}`},
		{"bad k", "/v1/reduce?k=0", `{"type":"hypergraph","n":2,"edges":[[0,1]]}`},
		{"bad format", "/v1/reduce?format=xml", `{"type":"hypergraph","n":2,"edges":[[0,1]]}`},
		{"malformed body", "/v1/reduce", `{"type":"hypergraph","n":2,"edges":[[0,5]]}`},
		{"graph body on reduce", "/v1/reduce", `{"type":"graph","n":2,"edges":[[0,1]]}`},
		{"empty body", "/v1/reduce", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got map[string]any
			resp := postInstance(t, ts.URL+tc.url, []byte(tc.body), &got)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", resp.StatusCode, got)
			}
			if got["error"] == "" {
				t.Error("400 response carries no error message")
			}
		})
	}
}

// TestMaxISInapplicableOracleIs422 pins the status for a partial oracle
// declining an instance outside its class: the body parsed fine, so it
// is neither a 400 nor a server fault.
func TestMaxISInapplicableOracleIs422(t *testing.T) {
	_, ts := newTestServer(t)
	triangle := []byte(`{"type":"graph","n":3,"edges":[[0,1],[1,2],[0,2]]}`)
	var got map[string]any
	resp := postInstance(t, ts.URL+"/v1/maxis?oracle=bipartite-exact", triangle, &got)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (%v)", resp.StatusCode, got)
	}
	if got["error"] == "" {
		t.Error("422 response carries no error message")
	}
	// Inside a portfolio the same instance succeeds: the member drops.
	var ok maxisResponse
	resp = postInstance(t, ts.URL+"/v1/maxis?oracle=portfolio:bipartite-exact,greedy-mindeg", triangle, &ok)
	if resp.StatusCode != http.StatusOK || !ok.Verified {
		t.Fatalf("portfolio with inapplicable member: status %d, verified %v", resp.StatusCode, ok.Verified)
	}
}

// TestMaxISAllFormats posts the same graph in every supported format,
// with and without an explicit format directive.
func TestMaxISAllFormats(t *testing.T) {
	_, ts := newTestServer(t)
	g := graph.Grid(4, 5)
	for _, f := range []graphio.Format{graphio.FormatEdgeList, graphio.FormatDIMACS, graphio.FormatJSON} {
		var buf bytes.Buffer
		if err := graphio.WriteGraph(&buf, g, f); err != nil {
			t.Fatal(err)
		}
		for _, directive := range []string{"", "&format=" + f.String()} {
			var got maxisResponse
			url := ts.URL + "/v1/maxis?oracle=greedy-mindeg" + directive
			resp := postInstance(t, url, buf.Bytes(), &got)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v%s: status %d", f, directive, resp.StatusCode)
			}
			if !got.Verified || got.Size == 0 || len(got.IndependentSet) != got.Size {
				t.Errorf("%v%s: response %+v", f, directive, got)
			}
			// A 4x5 grid's maximum independent set has 10 nodes; greedy
			// min-degree finds it.
			if got.Size != 10 {
				t.Errorf("%v%s: size = %d, want 10", f, directive, got.Size)
			}
		}
	}
}

func TestMaxISCarvingReportsLocality(t *testing.T) {
	_, ts := newTestServer(t)
	var buf bytes.Buffer
	if err := graphio.WriteGraph(&buf, graph.Cycle(24), graphio.FormatJSON); err != nil {
		t.Fatal(err)
	}
	var got maxisResponse
	resp := postInstance(t, ts.URL+"/v1/maxis?algorithm=carving&delta=1.0", buf.Bytes(), &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !got.Verified || got.Size == 0 {
		t.Fatalf("carving response %+v", got)
	}
	if got.Locality < 1 || got.RadiusBound < got.Locality {
		t.Errorf("locality %d outside [1, bound %d]", got.Locality, got.RadiusBound)
	}
}

// blockOracle blocks Solve until the engine context is cancelled, letting
// the cancellation test hold a reduction mid-phase deterministically.
type blockOracle struct {
	mu      sync.Mutex
	eng     engine.Options
	started chan struct{}
}

func (o *blockOracle) Name() string { return "test-block" }

func (o *blockOracle) SetEngine(e engine.Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.eng = e
}

func (o *blockOracle) Solve(*graph.Graph) ([]int32, error) {
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

var registerBlockOracle sync.Once

// TestCancellationMidReduction aborts a request while its phase solve is
// running and checks the server records the abandonment instead of
// counting a success or failure.
func TestCancellationMidReduction(t *testing.T) {
	s, ts := newTestServer(t)
	oracle := &blockOracle{started: make(chan struct{}, 1)}
	registerBlockOracle.Do(func() {
		maxis.MustRegister("test-block", func(int64) maxis.Oracle { return oracle })
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/reduce?oracle=test-block&workers=2", bytes.NewReader(quickstartBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-oracle.started:
	case <-time.After(5 * time.Second):
		t.Fatal("oracle never started solving")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request should fail after cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.met.canceled.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancelled request")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.met.reduces.Value() != 0 {
		t.Errorf("cancelled request counted as a successful reduce")
	}
}

func TestHealthzAndStatz(t *testing.T) {
	_, ts := newTestServer(t)
	var health struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" || health.UptimeS <= 0 {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	// One miss then one hit, visible on /metrics.
	body := quickstartBody(t)
	for i := 0; i < 2; i++ {
		var out map[string]any
		postInstance(t, ts.URL+"/v1/reduce?k=3", body, &out)
	}
	e := scrape(t, ts.URL)
	for _, tc := range []struct {
		name   string
		labels []obs.Label
		want   float64
	}{
		{"pslocal_solves_total", []obs.Label{obs.L("endpoint", "reduce")}, 2},
		{"pslocal_cache_hits_total", nil, 1},
		{"pslocal_cache_misses_total", nil, 1},
		{"pslocal_cache_entries", nil, 1},
		{"pslocal_max_inflight", nil, 2},
		{"pslocal_max_workers", nil, 2},
	} {
		if got := metric(t, e, tc.name, tc.labels...); got != tc.want {
			t.Errorf("%s%v = %v, want %v", tc.name, tc.labels, got, tc.want)
		}
	}

	// /statz keeps only the cache block, for the serving benchmark.
	var statz map[string]pslocal.SolverCacheStats
	if code := getJSON(t, ts.URL+"/statz", &statz); code != http.StatusOK {
		t.Fatalf("statz status %d", code)
	}
	if c, ok := statz["cache"]; len(statz) != 1 || !ok || c.Hits != 1 || c.Misses != 1 || c.Entries != 1 {
		t.Errorf("statz = %+v, want only a cache block with 1 hit, 1 miss, 1 entry", statz)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/reduce")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/reduce status %d, want 405", resp.StatusCode)
	}
}

// TestREADMECurlBodyStaysExecutable pins the contract the CI smoke job
// and the README curl example rely on: the checked-in request body parses
// as a hypergraph and strings.Contains-level schema markers hold.
func TestREADMECurlBodyStaysExecutable(t *testing.T) {
	body := quickstartBody(t)
	if !strings.Contains(string(body), `"type":"hypergraph"`) {
		t.Error("testdata/quickstart.json lost its type marker")
	}
	h, err := graphio.ReadHypergraph(bytes.NewReader(body), graphio.FormatAuto)
	if err != nil {
		t.Fatalf("quickstart body no longer parses: %v", err)
	}
	if h.N() == 0 || h.M() == 0 {
		t.Error("quickstart body degenerate")
	}
}

// TestBodyTooLargeReturns413 pins the over-limit status distinction.
func TestBodyTooLargeReturns413(t *testing.T) {
	_, ts := newTestServerConfig(t, config{maxWorkers: 1, maxInflight: 1, maxBodyBytes: 64, seed: 1})
	big := bytes.Repeat([]byte{'a'}, 256)
	var got map[string]any
	resp := postInstance(t, ts.URL+"/v1/reduce", big, &got)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%v)", resp.StatusCode, got)
	}
}
