package main

// measure.go runs one workload against live servers: set-up (repeated,
// for setup_s), the open-loop phase, the closed-loop phase, and the
// answer checks and self-checks that follow.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// setupRepeats is how many times a run deploys and primes; setup_s is
// the median and only the last deployment is measured.
const setupRepeats = 5

// coldReuseMargin is the reordering slack the cold sequence must leave:
// a body comes back only after more than serverCacheEntries+margin
// distinct others.
const coldReuseMargin = 32

// liveRun is everything the live phases produced.
type liveRun struct {
	setups       []float64 // seconds, one per deployment
	open, closed []outcome
	openAns      []answer
	closedAns    []answer
	openFail     []error // per open outcome: transport, status or answer failure
	closedFail   []error
	closedDur    time.Duration
	jobs         map[string]jobEnvelope // open-loop jobs by id, terminal
	cacheBefore  cacheStats
	cacheAfter   cacheStats
	retries      float64
	rssMiB       float64
	closedCPU    time.Duration // server CPU time over the closed loop
	checks       []string      // failed self-checks
	servers      [][]string
}

// prime sends the set-up traffic one request at a time and checks it.
func prime(ctx context.Context, c *http.Client, base string, p *plan) error {
	for _, r := range p.warmups {
		o := send(ctx, c, base, r, time.Now())
		if !o.ok() {
			return fmt.Errorf("set-up request %d (%s): status %d: %v: %s", r.seq, r.path, o.status, o.err, o.body)
		}
		if r.isJob() {
			state, err := awaitJob(ctx, c, base, o.body)
			if err != nil || state != "done" {
				return fmt.Errorf("set-up job %d ended %q: %v", r.seq, state, err)
			}
			continue
		}
		if a := checkResponse(r, p.wl.classes[r.class].endpoint, o.body); a.wrong != nil {
			return fmt.Errorf("set-up request %d: %w", r.seq, a.wrong)
		}
	}
	return nil
}

// runLive deploys setupRepeats times, measures the last deployment, and
// checks every answer.
func runLive(ctx context.Context, binDir string, p *plan, c *http.Client, clients int, closedDur time.Duration) (*liveRun, error) {
	lr := &liveRun{}
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		dep, err := deploy(ctx, binDir, p.wl.gateway, c)
		if err != nil {
			return nil, err
		}
		if err := prime(ctx, c, dep.target(), p); err != nil {
			dep.stop()
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			dep.stop()
			c.CloseIdleConnections()
		} else {
			d = dep
		}
	}
	defer d.stop()
	for _, pr := range d.procs() {
		lr.servers = append(lr.servers, pr.args)
	}
	base := d.target()

	var err error
	if lr.cacheBefore, err = d.backendCache(ctx, c); err != nil {
		return nil, err
	}
	retriesBefore, err := d.gatewayRetries(ctx, c)
	if err != nil {
		return nil, err
	}
	store := newBodyStore()
	lr.open = openLoop(ctx, c, base, p.open, store)
	lr.closedDur = closedDur
	cpuBefore, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	lr.closed, err = closedLoop(ctx, c, base, p.closed, clients, closedDur, store)
	if err != nil {
		return nil, err
	}
	cpuAfter, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	lr.closedCPU = cpuAfter - cpuBefore
	if lr.rssMiB, err = d.peakRSSMiB(); err != nil {
		return nil, err
	}
	if lr.cacheAfter, err = d.backendCache(ctx, c); err != nil {
		return nil, err
	}
	retriesAfter, err := d.gatewayRetries(ctx, c)
	if err != nil {
		return nil, err
	}
	lr.retries = retriesAfter - retriesBefore

	// Everything below is outside the timed phases.
	lr.openAns, lr.openFail = checkAll(p, lr.open, store)
	lr.closedAns, lr.closedFail = checkAll(p, lr.closed, store)
	submitted := 0
	for i, o := range lr.open {
		if o.req.isJob() && lr.openFail[i] == nil {
			submitted++
		}
	}
	lr.jobs = map[string]jobEnvelope{}
	if submitted > 0 {
		list, err := waitJobs(ctx, c, base, labelOpen, submitted)
		if err != nil {
			return nil, err
		}
		for _, j := range list {
			lr.jobs[j.Job.ID] = j
		}
	}
	for i, o := range lr.open {
		if o.req.isJob() && lr.openFail[i] == nil {
			lr.openFail[i] = checkJob(ctx, c, base, o.req, lr.openAns[i].jobID)
		}
	}
	for i, o := range lr.closed {
		if o.req.isJob() && lr.closedFail[i] == nil {
			if o.jobState != "done" {
				lr.closedFail[i] = fmt.Errorf("job ended %q", o.jobState)
			} else {
				lr.closedFail[i] = checkJob(ctx, c, base, o.req, lr.closedAns[i].jobID)
			}
		}
	}
	lr.selfCheck(p)
	return lr, nil
}

// checkAll verifies every outcome's answer, each distinct body once.
func checkAll(p *plan, outs []outcome, store *bodyStore) ([]answer, []error) {
	ans := make([]answer, len(outs))
	fails := make([]error, len(outs))
	checked := map[bodyKey]answer{}
	for i := range outs {
		o := &outs[i]
		switch {
		case o.err != nil:
			fails[i] = o.err
		case !o.ok():
			fails[i] = fmt.Errorf("status %d: %s", o.status, o.body)
		default:
			a, ok := checked[o.key]
			if !ok {
				a = checkResponse(o.req, p.wl.classes[o.req.class].endpoint, store.bodies[o.key])
				checked[o.key] = a
			}
			a.elapsedMS = o.elapsedMS
			ans[i], fails[i] = a, a.wrong
		}
	}
	return ans, fails
}

// selfCheck records every way the run failed to exercise what its
// workload claims to.
func (lr *liveRun) selfCheck(p *plan) {
	hits, sync := 0, 0
	for i, o := range lr.open {
		if o.req.isJob() || lr.openFail[i] != nil {
			continue
		}
		sync++
		if lr.openAns[i].cache == "hit" {
			hits++
		}
	}
	hitPct := pct(hits, sync)
	if p.wl.hot {
		if hitPct < 99 {
			lr.checks = append(lr.checks, fmt.Sprintf("hot cache hits %.2f%% after priming, want >= 99%%", hitPct))
		}
		return
	}
	if hits > 0 || lr.cacheAfter.Hits > 0 {
		lr.checks = append(lr.checks, fmt.Sprintf("cold workload read %d cache hits (server counter %d), want 0",
			hits, lr.cacheAfter.Hits))
	}
	if lr.cacheAfter.Evictions == 0 {
		lr.checks = append(lr.checks, "cold workload evicted nothing from the instance cache")
	}
}

// failures counts failed outcomes and returns the first few messages.
func failures(fails ...[]error) (int, []string) {
	n := 0
	var msgs []string
	for _, fs := range fails {
		for _, err := range fs {
			if err == nil {
				continue
			}
			n++
			if len(msgs) < 5 {
				msgs = append(msgs, err.Error())
			}
		}
	}
	return n, msgs
}

// medianOf returns the median of a small sample (the mean of the two
// middle values for an even count).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
