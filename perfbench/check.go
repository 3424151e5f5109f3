package main

// check.go verifies every answer independently of the server's own
// "verified" claim, outside the timed path: maxis sets against the graph
// the benchmark generated, reduce results through graphio.ReadResult and
// the verify package against the generated hypergraph, and done jobs
// through the result document fetched from the server.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pslocal/internal/graphio"
	"pslocal/internal/verify"
)

// answer is the checked content of one response.
type answer struct {
	cache     string  // instance.cache: "hit" or "miss" (sync classes)
	elapsedMS float64 // server-side elapsed_ms (sync classes)
	colors    int     // reduce: total_colors
	isSize    int     // maxis: independent-set size
	jobID     string  // jobs: the submitted job's id
	// wrong is set when the answer is wrong or cannot be verified.
	wrong error
}

// checkResponse decodes and verifies a successful response body.
func checkResponse(r *request, endpoint string, body []byte) answer {
	var a answer
	switch endpoint {
	case epReduce:
		var resp struct {
			Instance struct {
				Cache string `json:"cache"`
			} `json:"instance"`
			Verified  bool            `json:"verified"`
			ElapsedMS float64         `json:"elapsed_ms"`
			Result    json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			a.wrong = fmt.Errorf("reduce response: %w", err)
			return a
		}
		a.cache, a.elapsedMS = resp.Instance.Cache, resp.ElapsedMS
		a.colors, a.wrong = checkReduction(r, resp.Result)
		if a.wrong == nil && !resp.Verified {
			a.wrong = errors.New("server reported verified=false on a valid result")
		}
	case epMaxIS:
		var resp struct {
			Instance struct {
				Cache string `json:"cache"`
			} `json:"instance"`
			Size           int     `json:"size"`
			IndependentSet []int32 `json:"independent_set"`
			ElapsedMS      float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			a.wrong = fmt.Errorf("maxis response: %w", err)
			return a
		}
		a.cache, a.elapsedMS, a.isSize = resp.Instance.Cache, resp.ElapsedMS, len(resp.IndependentSet)
		switch {
		case resp.Size != len(resp.IndependentSet):
			a.wrong = fmt.Errorf("maxis size %d but %d vertices listed", resp.Size, len(resp.IndependentSet))
		default:
			a.wrong = verify.IndependentSet(r.inst.graph(), resp.IndependentSet)
		}
	case epJobs:
		var env jobEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Job.ID == "" {
			a.wrong = fmt.Errorf("job submit response without an id: %v", err)
		}
		a.jobID = env.Job.ID
	}
	return a
}

// checkReduction parses a reduction-result document and verifies it
// against the hypergraph the request carried.
func checkReduction(r *request, doc []byte) (int, error) {
	res, err := graphio.ReadResult(bytes.NewReader(doc))
	if err != nil {
		return 0, err
	}
	if res.K != 3 {
		return 0, fmt.Errorf("result palette k=%d, requested 3", res.K)
	}
	if err := verify.ReductionResult(r.inst.h, res); err != nil {
		return 0, err
	}
	if err := verify.ConflictFreeMulti(r.inst.h, res.Multicoloring); err != nil {
		return 0, err
	}
	return res.TotalColors, nil
}

// checkJob fetches a done job's result and verifies it against the
// hypergraph that was submitted.
func checkJob(ctx context.Context, c *http.Client, base string, r *request, id string) error {
	var env jobEnvelope
	if err := getJSON(ctx, c, base+"/v1/jobs/"+id, &env); err != nil {
		return err
	}
	if env.Job.State != "done" {
		return fmt.Errorf("job %s ended %s", id, env.Job.State)
	}
	_, err := checkReduction(r, env.Result)
	return err
}
