package main

// render_test.go holds the /v1/reduce and done-job GET bodies to the
// two-pass rendering they replaced, byte for byte: the result document
// written by graphio.WriteResult into a side buffer, embedded as a
// json.RawMessage, then compacted and re-indented by the response
// encoder.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"pslocal"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
)

// twoPassReduceResponse is reduceResponse with the result document as
// pre-rendered bytes.
type twoPassReduceResponse struct {
	Instance  instanceInfo           `json:"instance"`
	Oracle    string                 `json:"oracle"`
	Workers   int                    `json:"workers"`
	Verified  bool                   `json:"verified"`
	ElapsedMS float64                `json:"elapsed_ms"`
	Result    json.RawMessage        `json:"result"`
	Trace     *pslocal.TraceSnapshot `json:"trace,omitempty"`
}

// twoPassJobResponse is jobResponse with the result document as
// pre-rendered bytes.
type twoPassJobResponse struct {
	Job    pslocal.JobInfo `json:"job"`
	WaitMS float64         `json:"wait_ms"`
	RunMS  float64         `json:"run_ms"`
	Result json.RawMessage `json:"result,omitempty"`
}

// twoPassDoc is the first pass: the result document in its own buffer.
func twoPassDoc(t *testing.T, res *pslocal.ReduceResult) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// twoPassBody is the second pass, encoded the way writeJSON encodes.
func twoPassBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fetch issues a request and returns the status and the raw body.
func fetch(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestResultBodiesMatchTwoPassRendering(t *testing.T) {
	// Vertices 5–7 lie in no edge, so the unweighted result has
	// uncoloured vertices; the weighted one carries the weight fields.
	unweighted := hypergraph.MustNew(8, [][]int32{{0, 1, 2}, {2, 3, 4}, {0, 4}, {1, 3}})
	weighted, err := hypergraph.NewWeighted(6,
		[][]int32{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}},
		[]int64{10, 1, 1, 20, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		h      *hypergraph.Hypergraph
		oracle string
	}{
		{"unweighted", unweighted, "implicit"},
		{"unweighted-oracle", unweighted, "greedy-mindeg"},
		{"weighted", weighted, "implicit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t)
			var buf bytes.Buffer
			if err := graphio.WriteHypergraph(&buf, tc.h, graphio.FormatJSON); err != nil {
				t.Fatal(err)
			}
			body := buf.Bytes()
			// The server's result, solved again from the same body with the
			// same strategy: every strategy here is deterministic.
			hg, err := graphio.ParseHypergraph(body, graphio.FormatJSON)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pslocal.NewSolver(pslocal.WithK(2), pslocal.WithOracle(tc.oracle)).Solve(context.Background(), hg)
			if err != nil {
				t.Fatal(err)
			}

			status, got := fetch(t, http.MethodPost, ts.URL+"/v1/reduce?k=2&format=json&oracle="+tc.oracle, body)
			if status != http.StatusOK {
				t.Fatalf("reduce status %d: %s", status, got)
			}
			var ref twoPassReduceResponse
			if err := json.Unmarshal(got, &ref); err != nil {
				t.Fatal(err)
			}
			if !ref.Verified {
				t.Fatalf("reduce result not verified: %s", got)
			}
			ref.Result = twoPassDoc(t, want) // elapsed_ms and the rest come from the response
			if old := twoPassBody(t, ref); !bytes.Equal(got, old) {
				t.Fatalf("reduce body differs from the two-pass rendering:\n got %s\nwant %s", got, old)
			}

			status, sub := fetch(t, http.MethodPost, ts.URL+"/v1/jobs?k=2&format=json&oracle="+tc.oracle, body)
			if status != http.StatusAccepted {
				t.Fatalf("job submit status %d: %s", status, sub)
			}
			var submitted jobResponse
			if err := json.Unmarshal(sub, &submitted); err != nil {
				t.Fatal(err)
			}
			id := submitted.Job.ID
			if final := pollJob(t, ts.URL, id); final.Job.State != pslocal.JobDone {
				t.Fatalf("job ended %s: %s", final.Job.State, final.Job.Error)
			}
			status, got = fetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
			if status != http.StatusOK {
				t.Fatalf("job GET status %d: %s", status, got)
			}
			info, err := s.jobs.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.jobs.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			old := twoPassBody(t, twoPassJobResponse{
				Job: info, WaitMS: info.WaitMS(), RunMS: info.RunMS(), Result: twoPassDoc(t, res),
			})
			if !bytes.Equal(got, old) {
				t.Fatalf("job body differs from the two-pass rendering:\n got %s\nwant %s", got, old)
			}
		})
	}
}
