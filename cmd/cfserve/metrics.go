package main

// metrics.go is the cfserve metrics surface: one pslocal.MetricsRegistry
// renders GET /metrics in the Prometheus text format, the one place the
// server publishes its numbers. Request counters and the latency-track
// histograms are typed handles the handlers hit directly; limits, cache,
// admission and job-lifecycle series read through func-backed
// gauges/counters at scrape time.
//
// The latency tracks: reduce, maxis and jobs_submit time whole
// successful requests, and every solve sample additionally lands in
// cache_hit or cache_miss (hot instance-cache path vs cold parse+CSR).

import (
	"time"

	"pslocal"
)

// serverMetrics owns the registry and the hot-path handles.
type serverMetrics struct {
	reg *pslocal.MetricsRegistry

	requests *pslocal.MetricsCounter // all requests, any endpoint
	reduces  *pslocal.MetricsCounter // successful /v1/reduce responses
	solves   *pslocal.MetricsCounter // successful /v1/maxis responses
	failures *pslocal.MetricsCounter // 4xx/5xx responses
	canceled *pslocal.MetricsCounter // requests abandoned mid-solve

	reduce     *pslocal.MetricsHistogram
	maxis      *pslocal.MetricsHistogram
	jobsSubmit *pslocal.MetricsHistogram
	cacheHit   *pslocal.MetricsHistogram
	cacheMiss  *pslocal.MetricsHistogram
}

// newServerMetrics builds the registry over the shared solver and job
// manager; the func-backed series snapshot their stats at scrape time.
func newServerMetrics(sv *pslocal.Solver, jm *pslocal.JobManager, maxWorkers int) *serverMetrics {
	reg := pslocal.NewMetricsRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: reg.Counter("pslocal_requests_total", "HTTP requests received, any endpoint."),
		reduces: reg.Counter("pslocal_solves_total", "Successful synchronous solves by endpoint.",
			pslocal.MetricsLabel{Key: "endpoint", Value: "reduce"}),
		solves: reg.Counter("pslocal_solves_total", "Successful synchronous solves by endpoint.",
			pslocal.MetricsLabel{Key: "endpoint", Value: "maxis"}),
		failures: reg.Counter("pslocal_failures_total", "Requests answered 4xx or 5xx."),
		canceled: reg.Counter("pslocal_canceled_total", "Requests abandoned by the client mid-solve."),
	}
	const durName = "pslocal_request_duration_seconds"
	const durHelp = "Request latency by track; solve samples land in their endpoint track and in cache_hit or cache_miss."
	track := func(name string) *pslocal.MetricsHistogram {
		return reg.Histogram(durName, durHelp, pslocal.MetricsLabel{Key: "track", Value: name})
	}
	m.reduce = track("reduce")
	m.maxis = track("maxis")
	m.jobsSubmit = track("jobs_submit")
	m.cacheHit = track("cache_hit")
	m.cacheMiss = track("cache_miss")

	reg.GaugeFunc("pslocal_inflight", "Currently admitted solves.",
		func() float64 { return float64(sv.InFlight()) })
	reg.GaugeFunc("pslocal_max_inflight", "Admission gate capacity (0 = unbounded).",
		func() float64 { return float64(sv.MaxInFlight()) })
	reg.GaugeFunc("pslocal_max_workers", "Per-request worker cap.",
		func() float64 { return float64(maxWorkers) })
	reg.GaugeFunc("pslocal_cache_capacity", "Instance cache capacity in entries.",
		func() float64 { return float64(sv.CacheStats().Capacity) })
	reg.CounterFunc("pslocal_cache_hits_total", "Instance cache hits.",
		func() float64 { return float64(sv.CacheStats().Hits) })
	reg.CounterFunc("pslocal_cache_misses_total", "Instance cache misses.",
		func() float64 { return float64(sv.CacheStats().Misses) })
	reg.CounterFunc("pslocal_cache_evictions_total", "Instance cache evictions.",
		func() float64 { return float64(sv.CacheStats().Evictions) })
	reg.GaugeFunc("pslocal_cache_entries", "Instance cache resident entries.",
		func() float64 { return float64(sv.CacheStats().Entries) })

	jobCounter := func(name, help string, read func(pslocal.JobStats) uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(read(jm.Stats())) })
	}
	jobCounter("pslocal_jobs_submitted_total", "Jobs accepted by Submit (dedupes excluded).",
		func(s pslocal.JobStats) uint64 { return s.Submitted })
	jobCounter("pslocal_jobs_deduped_total", "Submits answered by an existing job.",
		func(s pslocal.JobStats) uint64 { return s.Deduped })
	jobCounter("pslocal_jobs_completed_total", "Jobs that reached done.",
		func(s pslocal.JobStats) uint64 { return s.Completed })
	jobCounter("pslocal_jobs_failed_total", "Jobs that reached failed.",
		func(s pslocal.JobStats) uint64 { return s.Failed })
	jobCounter("pslocal_jobs_cancelled_total", "Jobs that reached cancelled.",
		func(s pslocal.JobStats) uint64 { return s.Cancelled })
	jobCounter("pslocal_jobs_retries_total", "Transient re-runs across all jobs.",
		func(s pslocal.JobStats) uint64 { return s.Retries })
	jobCounter("pslocal_jobs_recovered_total", "Jobs restored from the store at startup.",
		func(s pslocal.JobStats) uint64 { return s.Recovered })
	jobCounter("pslocal_jobs_adopted_total", "Jobs adopted from a shared store after startup.",
		func(s pslocal.JobStats) uint64 { return s.Adopted })
	// Finished renders before Started: every job bumps started before
	// finished, so reading them in this order keeps started >= finished
	// in every scrape, as Manager.Stats does within one snapshot.
	jobCounter("pslocal_jobs_finished_total", "Jobs whose worker run reached a terminal state.",
		func(s pslocal.JobStats) uint64 { return s.Finished })
	jobCounter("pslocal_jobs_started_total", "Jobs that left the queue for a worker.",
		func(s pslocal.JobStats) uint64 { return s.Started })
	reg.CounterFunc("pslocal_jobs_wait_seconds_total", "Queue wait summed over started jobs.",
		func() float64 { return jm.Stats().WaitSumMS / 1e3 })
	reg.CounterFunc("pslocal_jobs_run_seconds_total", "Run time summed over finished jobs.",
		func() float64 { return jm.Stats().RunSumMS / 1e3 })
	reg.GaugeFunc("pslocal_jobs_queue_depth", "Jobs waiting in the queue.",
		func() float64 { return float64(jm.Stats().QueueDepth) })
	reg.GaugeFunc("pslocal_jobs_running", "Jobs currently running on workers.",
		func() float64 { return float64(jm.Stats().Running) })
	reg.GaugeFunc("pslocal_jobs_queue_capacity", "Job queue capacity across priority lanes.",
		func() float64 { return float64(jm.Stats().QueueCap) })
	reg.GaugeFunc("pslocal_jobs_workers", "Job worker pool width.",
		func() float64 { return float64(jm.Stats().Workers) })
	return m
}

// observeSolve feeds one successful solve into its endpoint track and
// into the cache-disposition split.
func (m *serverMetrics) observeSolve(endpoint *pslocal.MetricsHistogram, d time.Duration, cacheHit bool) {
	endpoint.Observe(d)
	if cacheHit {
		m.cacheHit.Observe(d)
	} else {
		m.cacheMiss.Observe(d)
	}
}
