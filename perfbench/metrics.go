package main

// metrics.go turns a live run (and, traced, its replay) into the named
// metrics BENCHMARK.json lists.

import (
	"fmt"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Window sizes for end-to-end percentiles: the smallest sample that
// supports the p99 (latencies) and the p90 (jobs).
const (
	latencyWindow = 1000
	jobWindow     = 100
)

// endToEnd computes the untraced run's metrics. A percentile the sample
// cannot support is an error, not a number.
func endToEnd(p *plan, lr *liveRun) (map[string]metric, map[string]any, error) {
	var lat []float64
	withinLimit := 0
	var colors, isSizes []float64
	perClass := map[string][]float64{}
	for i, o := range lr.open {
		if lr.openFail[i] != nil {
			continue
		}
		c := p.wl.classes[o.req.class]
		l := ms(o.latency)
		lat = append(lat, l)
		perClass[c.name] = append(perClass[c.name], l)
		if o.latency <= c.limit {
			withinLimit++
		}
		switch c.endpoint {
		case epReduce:
			colors = append(colors, float64(lr.openAns[i].colors))
		case epMaxIS:
			isSizes = append(isSizes, float64(lr.openAns[i].isSize))
		}
	}
	p50, err := windowed(lat, 0.50, latencyWindow)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: p50_ms: %v", errTail, err)
	}

	// Closed-loop completions per one-second window; capacity is their
	// median, so a stall moves one window instead of the whole figure.
	perSecond := make([]float64, max(1, int(lr.closedDur/time.Second)))
	completed := 0
	for i, o := range lr.closed {
		if lr.closedFail[i] != nil {
			continue
		}
		completed++
		if w := int(o.done / time.Second); w < len(perSecond) {
			perSecond[w]++
		}
	}
	var jobLat []float64
	for i, o := range lr.open {
		if j, ok := lr.jobs[lr.openAns[i].jobID]; ok && o.req.isJob() && j.Job.State == "done" {
			jobLat = append(jobLat, ms(j.Job.FinishedAt.Sub(j.Job.SubmittedAt)))
		}
	}
	jobP50, err := windowed(jobLat, 0.50, jobWindow)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: job_p50_ms: %v", errTail, err)
	}
	attempted := len(lr.open) + len(lr.closed)
	failed, _ := failures(lr.openFail, lr.closedFail)

	m := map[string]metric{
		"p50_ms":        {p50, "ms"},
		"slo_pct":       {pct(withinLimit, len(lr.open)), "%"},
		"capacity_rps":  {medianOf(perSecond), "req/s"},
		"server_cpu_ms": {ms(lr.closedCPU) / float64(completed), "ms"},
		"ok_pct":        {pct(attempted-failed, attempted), "%"},
		"job_p50_ms":    {jobP50, "ms"},
		"mean_colors":   {mean(colors), "colours"},
		"mean_is_size":  {mean(isSizes), "vertices"},
		"setup_s":       {medianOf(lr.setups), "s"},
		"server_rss_mb": {lr.rssMiB, "MiB"},
	}
	// Tails are reported here rather than as metrics: they follow the
	// host's CPU steal more than the program (README.md). -1 marks a
	// sample too small for the percentile.
	tail := func(xs []float64, q float64, window int) float64 {
		v, err := windowed(xs, q, window)
		if err != nil {
			return -1
		}
		return v
	}
	detail := map[string]any{
		"p90_ms":          tail(lat, 0.90, latencyWindow),
		"p95_ms":          tail(lat, 0.95, latencyWindow),
		"p99_ms":          tail(lat, 0.99, latencyWindow),
		"job_p90_ms":      tail(jobLat, 0.90, jobWindow),
		"latency_windows": max(1, len(lat)/latencyWindow),
		"open_samples":    len(lat),
		"job_samples":     len(jobLat),
		"closed_samples":  completed,
		"closed_per_s":    perSecond,
		"setups_s":        lr.setups,
	}
	for name, xs := range perClass {
		detail["class."+name] = map[string]any{
			"n": len(xs), "p50_ms": tailOrLower(xs, 0.5), "p99_ms": tailOrLower(xs, 0.99),
		}
	}
	return m, detail, nil
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n     int
	total time.Duration
	alloc int64
	count int64
}

func (a *spanAgg) meanUS() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return us(a.total) / float64(a.n)
}

// perLayer computes the traced run's metrics from the live responses and
// the replay's spans.
func perLayer(p *plan, lr *liveRun, rr *replayResult) (map[string]metric, map[string]any) {
	// Live side: server-reported elapsed_ms against client latency.
	var handler, hop, lags []float64
	elapsed := map[int]float64{}
	hits, sync := 0, 0
	for i, o := range lr.open {
		lags = append(lags, ms(o.lag))
		if lr.openFail[i] != nil || o.req.isJob() {
			continue
		}
		a := lr.openAns[i]
		sync++
		if a.cache == "hit" {
			hits++
		}
		handler = append(handler, a.elapsedMS)
		hop = append(hop, ms(o.latency)-a.elapsedMS)
		elapsed[o.req.seq] = a.elapsedMS
	}
	var wait, run []float64
	for _, j := range lr.jobs {
		if j.Job.State == "done" {
			wait = append(wait, ms(j.Job.StartedAt.Sub(j.Job.SubmittedAt)))
			run = append(run, ms(j.Job.FinishedAt.Sub(j.Job.StartedAt)))
		}
	}
	var transport, overhead, maxShare float64
	if p.wl.gateway {
		overhead = tailOrLower(hop, 0.5)
		byBackend := map[string]int{}
		total := 0
		for _, outs := range [][]outcome{lr.open, lr.closed} {
			for _, o := range outs {
				if o.backend != "" {
					byBackend[o.backend]++
					total++
				}
			}
		}
		for _, n := range byBackend {
			maxShare = max(maxShare, pct(n, total))
		}
	} else {
		transport = tailOrLower(hop, 0.5)
	}

	// Replay side: aggregate spans by name, and per request the serial
	// service time cfserve's elapsed_ms covers.
	agg := map[string]*spanAgg{}
	add := func(name string, s *span) {
		a := agg[name]
		if a == nil {
			a = &spanAgg{}
			agg[name] = a
		}
		a.n++
		a.total += s.dur()
		a.alloc += s.Alloc
		a.count += s.Count
	}
	service := map[int]time.Duration{}
	var attributed time.Duration
	for i := range rr.spans {
		s := &rr.spans[i]
		name := s.Name
		if name == "solver.read" {
			name += "." + s.Detail
		}
		add(name, s)
		if s.Parent >= 0 && replicaLeaves[s.Name] && rr.spans[s.Parent].Name == "core.phase" {
			attributed += s.dur()
		}
		if s.Parent >= 0 && rr.spans[s.Parent].Name == "request" {
			class := rr.spans[s.Parent].Detail
			switch {
			case s.Name == "solver.read",
				class == "reduce" && (s.Name == "verify" || s.Name == "graphio.encode"):
				service[s.Seq] += s.dur()
			}
		}
	}
	var queue []float64
	for seq, e := range elapsed {
		if sv, ok := service[seq]; ok {
			queue = append(queue, e-ms(sv))
		}
	}
	reduce := agg["core.reduce"]
	nReduce := 0
	var reduceTotal time.Duration
	if reduce != nil {
		nReduce, reduceTotal = reduce.n, reduce.total
	}
	perReduce := func(name string) float64 {
		if nReduce == 0 || agg[name] == nil {
			return 0
		}
		return us(agg[name].total) / float64(nReduce)
	}
	countPerReduce := func(v int64) float64 {
		if nReduce == 0 {
			return 0
		}
		return float64(v) / float64(nReduce)
	}
	var unattributed, unattributedPct, gkAllocKB, gkEdges, phases, parseAllocKB float64
	if nReduce > 0 {
		unattributed = us(reduceTotal-attributed) / float64(nReduce)
		unattributedPct = 100 * float64(reduceTotal-attributed) / float64(reduceTotal)
	}
	if a := agg["core.gk_build"]; a != nil {
		gkAllocKB = countPerReduce(a.alloc) / 1024
		gkEdges = countPerReduce(a.count)
	}
	if a := agg["core.phase"]; a != nil {
		phases = countPerReduce(int64(a.n))
	}
	if a := agg["graphio.parse"]; a != nil {
		parseAllocKB = float64(a.alloc) / float64(a.n) / 1024
	}
	oracleCalls := 0
	if a := agg["maxis.oracle"]; a != nil {
		oracleCalls = a.n
	}
	var overheadPct float64
	if rr.untraced > 0 {
		overheadPct = 100 * (float64(rr.traced) - float64(rr.untraced)) / float64(rr.untraced)
	}

	m := map[string]metric{
		"cfserve.handler_p50_ms":        {tailOrLower(handler, 0.5), "ms"},
		"cfserve.queue_p99_ms":          {tailOrLower(queue, 0.99), "ms"},
		"cfserve.transport_p50_ms":      {transport, "ms"},
		"solver.cache_hit_pct":          {pct(hits, sync), "%"},
		"solver.hash_us":                {agg["solver.hash"].meanUS(), "us"},
		"solver.hit_us":                 {agg["solver.read.hit"].meanUS(), "us"},
		"solver.miss_us":                {agg["solver.read.miss"].meanUS(), "us"},
		"solver.evictions":              {float64(rr.evictions), "count"},
		"graphio.parse_us":              {agg["graphio.parse"].meanUS(), "us"},
		"graphio.parse_alloc_kb":        {parseAllocKB, "KiB"},
		"graphio.encode_us":             {agg["graphio.encode"].meanUS(), "us"},
		"core.reduce_us":                {reduce.meanUS(), "us"},
		"core.index_us":                 {perReduce("core.index"), "us"},
		"core.gk_build_us":              {perReduce("core.gk_build"), "us"},
		"core.gk_build_alloc_kb":        {gkAllocKB, "KiB"},
		"core.gk_edges":                 {gkEdges, "count"},
		"core.firstfit_us":              {perReduce("core.firstfit"), "us"},
		"core.phases":                   {phases, "count"},
		"core.unattributed_us":          {unattributed, "us"},
		"core.unattributed_pct":         {unattributedPct, "%"},
		"maxis.oracle_us":               {agg["maxis.oracle"].meanUS(), "us"},
		"maxis.oracle_calls":            {float64(oracleCalls), "count"},
		"verify.us":                     {agg["verify"].meanUS(), "us"},
		"jobs.wait_p50_ms":              {tailOrLower(wait, 0.5), "ms"},
		"jobs.run_p50_ms":               {tailOrLower(run, 0.5), "ms"},
		"cluster.overhead_p50_ms":       {overhead, "ms"},
		"cluster.backend_max_share_pct": {maxShare, "%"},
		"cluster.retries":               {lr.retries, "count"},
		"bench.gen_lag_p99_ms":          {tailOrLower(lags, 0.99), "ms"},
		"bench.trace_overhead_pct":      {overheadPct, "%"},
		"bench.replayed_requests":       {float64(rr.requests), "count"},
	}
	detail := map[string]any{
		"replay_requests":        rr.requests,
		"replay_of_open":         len(p.open),
		"overhead_pairs":         rr.paired,
		"queue_samples":          len(queue),
		"core_reduce_calls":      nReduce,
		"live_sync_samples":      sync,
		"server_cache_evictions": lr.cacheAfter.Evictions - lr.cacheBefore.Evictions,
	}
	return m, detail
}
