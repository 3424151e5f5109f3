package main

// traces.go is the solve-tracing surface: every synchronous solve runs
// under a trace leased from obs's pool (job runs lease theirs in the job
// manager), finished traces land in a bounded ring served by
// GET /v1/traces?limit=N, and ?trace=1 on /v1/reduce and /v1/maxis
// embeds the span tree in the response.

import (
	"fmt"
	"net/http"

	"pslocal"
	"pslocal/internal/obs"
)

// finishTrace closes the trace, publishes its snapshot to the ring, and
// returns the trace to the pool. The returned snapshot is safe to embed
// in the response (snapshots are immutable copies).
func (s *server) finishTrace(tr *pslocal.Trace) *pslocal.TraceSnapshot {
	tr.Finish()
	snap := tr.Snapshot()
	s.traces.Push(snap)
	obs.ReleaseTrace(tr)
	return snap
}

// handleTraces serves the retained trace snapshots, newest first.
// ?limit=N bounds the response (0 = everything retained).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var limit int
	if err := queryNum(q, "limit", &limit); err != nil || limit < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad limit parameter %q", q.Get("limit")))
		return
	}
	snaps := s.traces.Snapshot(limit)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.traces.Total(),
		"count":  len(snaps),
		"traces": snaps,
	})
}
