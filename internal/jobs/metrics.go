package jobs

// metrics.go carries the subsystem's counters: submissions, terminal
// outcomes, retries, queue/running gauges and latency sums. cfserve
// publishes a Stats snapshot's fields on /metrics and embeds it in
// /readyz and /drainz, and cfbatch prints one as its final summary.

import "sync/atomic"

// metrics is the internal atomic counter set.
type metrics struct {
	submitted atomic.Uint64
	deduped   atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	retries   atomic.Uint64
	recovered atomic.Uint64
	adopted   atomic.Uint64
	running   atomic.Int64
	started   atomic.Uint64
	finished  atomic.Uint64
	waitNS    atomic.Int64
	runNS     atomic.Int64
}

// Stats is a point-in-time snapshot of the manager's counters.
type Stats struct {
	// Submitted counts accepted Submit calls (dedupe hits excluded).
	Submitted uint64 `json:"submitted"`
	// Deduped counts Submits answered by an existing job with the same
	// content hash.
	Deduped uint64 `json:"deduped"`
	// Completed/Failed/Cancelled count terminal transitions in this
	// process (recovered jobs are counted separately).
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// Retries counts transient re-runs across all jobs.
	Retries uint64 `json:"retries"`
	// Recovered counts jobs restored from the store at construction.
	Recovered uint64 `json:"recovered"`
	// Adopted counts jobs adopted after construction from a shared store
	// another manager wrote (Rescan, or a lookup by id).
	Adopted uint64 `json:"adopted"`
	// Draining reports that Drain has stopped admissions.
	Draining bool `json:"draining,omitempty"`
	// QueueDepth and Running are gauges; QueueCap and Workers are the
	// configured bounds.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	Running    int `json:"running"`
	Workers    int `json:"workers"`
	// Started and Finished count jobs that left the queue for a worker
	// and jobs whose worker run reached a terminal state (jobs cancelled
	// while still queued count as neither) — the denominators for
	// WaitSumMS and RunSumMS respectively.
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	// WaitSumMS and RunSumMS accumulate queue-wait and run latency over
	// every job that started / finished here; divide by the matching
	// counters for means.
	WaitSumMS float64 `json:"wait_sum_ms"`
	RunSumMS  float64 `json:"run_sum_ms"`
}

// MeanWaitMS is the mean queue wait per started job (0 when none
// started).
func (s Stats) MeanWaitMS() float64 {
	if s.Started == 0 {
		return 0
	}
	return s.WaitSumMS / float64(s.Started)
}

// MeanRunMS is the mean run time per finished job (0 when none
// finished).
func (s Stats) MeanRunMS() float64 {
	if s.Finished == 0 {
		return 0
	}
	return s.RunSumMS / float64(s.Finished)
}

// snapshot assembles a Stats from the counters plus the live gauges.
// Every run bumps submitted before started and started before finished,
// so loading them in the reverse order keeps Submitted >= Started >=
// Finished in every snapshot.
func (m *metrics) snapshot(queueDepth, queueCap, workers int, draining bool) Stats {
	finished := m.finished.Load()
	started := m.started.Load()
	return Stats{
		Submitted:  m.submitted.Load(),
		Deduped:    m.deduped.Load(),
		Completed:  m.completed.Load(),
		Failed:     m.failed.Load(),
		Cancelled:  m.cancelled.Load(),
		Retries:    m.retries.Load(),
		Recovered:  m.recovered.Load(),
		Adopted:    m.adopted.Load(),
		Draining:   draining,
		QueueDepth: queueDepth,
		QueueCap:   queueCap,
		Running:    int(m.running.Load()),
		Workers:    workers,
		Started:    started,
		Finished:   finished,
		WaitSumMS:  float64(m.waitNS.Load()) / 1e6,
		RunSumMS:   float64(m.runNS.Load()) / 1e6,
	}
}
