package main

// jobs.go implements the asynchronous half of the service: the /v1/jobs
// API over the shared job manager. Where /v1/reduce holds the connection
// open for the whole reduction, POST /v1/jobs enqueues and returns a job
// id immediately; clients poll GET /v1/jobs/{id}, stream transitions from
// GET /v1/jobs/{id}/events (SSE), list with GET /v1/jobs, and cancel
// cooperatively with DELETE /v1/jobs/{id}. Job bodies take the same
// formats as /v1/reduce, and their solve parameters go through the same
// parser (parseSolve) with the same defaults, plus priority, deadline_ms,
// max_retries and label.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pslocal"
	"pslocal/internal/graphio"
)

// jobResponse is the envelope of every job endpoint: the snapshot, the
// derived latencies, and — for done jobs on GET — the persisted graphio
// result document.
type jobResponse struct {
	Job    pslocal.JobInfo `json:"job"`
	WaitMS float64         `json:"wait_ms"`
	RunMS  float64         `json:"run_ms"`
	// Result is nil, and omitted, until the job is done.
	Result *graphio.ResultDoc `json:"result,omitempty"`
}

// jobEnvelope assembles the response shape from a snapshot.
func jobEnvelope(info pslocal.JobInfo) jobResponse {
	return jobResponse{Job: info, WaitMS: info.WaitMS(), RunMS: info.RunMS()}
}

// handleJobSubmit enqueues the posted instance as a job and returns its
// id without waiting: 202 for a new job, 200 when the content hash
// dedupes onto an existing one, 503 (with Retry-After) at the queue
// bound. The solve parameters go through parseSolve and reach the
// manager fully resolved, so every spelling of one request is one job id.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	q := r.URL.Query()
	p, err := s.parseSolve(q, false)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	priority, err := pslocal.ParseJobPriority(q.Get("priority"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var deadlineMS int64
	if err := queryNum(q, "deadline_ms", &deadlineMS); err != nil || deadlineMS < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad deadline_ms parameter %q", q.Get("deadline_ms")))
		return
	}
	var maxRetries int
	if err := queryNum(q, "max_retries", &maxRetries); err != nil || maxRetries < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad max_retries parameter %q", q.Get("max_retries")))
		return
	}

	started := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, err)
		} else {
			s.fail(w, http.StatusBadRequest, err)
		}
		return
	}
	info, accepted, err := s.jobs.Submit(pslocal.JobRequest{
		Body:       body,
		Format:     p.format.String(),
		Params:     pslocal.JobParams{K: p.k, Oracle: p.oracle, Seed: p.seed, Workers: p.workers},
		Priority:   priority,
		Deadline:   time.Duration(deadlineMS) * time.Millisecond,
		MaxRetries: maxRetries,
		Label:      q.Get("label"),
		RequestID:  r.Header.Get(pslocal.RequestIDHeader),
	})
	if err != nil {
		s.failJob(w, err)
		return
	}
	status := http.StatusAccepted
	if !accepted { // idempotent resubmission: report the existing job
		status = http.StatusOK
	}
	s.met.jobsSubmit.Observe(time.Since(started))
	s.writeJSON(w, status, jobEnvelope(info))
}

// handleJobGet reports one job; a done job's response embeds the
// persisted result document.
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.failJob(w, err)
		return
	}
	resp := jobEnvelope(info)
	if info.State == pslocal.JobDone {
		res, err := s.jobs.Result(info.ID)
		if err != nil {
			// A done job whose store entry vanished maps through the job
			// taxonomy (409), not a server fault.
			s.failJob(w, err)
			return
		}
		resp.Result = graphio.NewResultDoc(res)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleJobList reports jobs in submission order, filtered by the state,
// label and limit query parameters.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := pslocal.JobFilter{Label: q.Get("label")}
	if raw := q.Get("state"); raw != "" {
		state, err := pslocal.ParseJobState(raw)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		filter.State = state
	}
	if err := queryNum(q, "limit", &filter.Limit); err != nil || filter.Limit < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad limit parameter %q", q.Get("limit")))
		return
	}
	infos := s.jobs.List(filter)
	jobs := make([]jobResponse, len(infos))
	for i, info := range infos {
		jobs[i] = jobEnvelope(info)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"count": len(jobs), "jobs": jobs})
}

// handleJobCancel requests cooperative cancellation; the response is the
// snapshot right after the request (a running job transitions
// asynchronously once its solve unwinds).
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		s.failJob(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, jobEnvelope(info))
}

// handleJobEvents streams the job's lifecycle as server-sent events: the
// first event is the state at subscription time, the stream ends after
// the terminal transition (or when the client goes away).
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	events, stop, err := s.jobs.Watch(r.PathValue("id"))
	if err != nil {
		s.failJob(w, err)
		return
	}
	defer stop()
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, data); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// failJob maps job-layer errors onto statuses: unknown ids are 404, a
// full queue or a draining manager is 503 with a retry hint, a closing
// server is 503, and the instance/format taxonomy reuses the solve
// mapping.
func (s *server) failJob(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pslocal.ErrJobNotFound):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, pslocal.ErrJobQueueFull),
		errors.Is(err, pslocal.ErrJobDraining):
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, pslocal.ErrJobManagerClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, pslocal.ErrNoJobResult):
		s.fail(w, http.StatusConflict, err)
	default:
		s.failSolve(w, err)
	}
}
