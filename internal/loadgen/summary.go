package loadgen

// summary.go builds the two run artifacts with deliberately different
// determinism contracts. Summary contains only replay-stable fields —
// counts, sizes and a digest over per-request (endpoint, format, ok,
// verified, size, key) tuples — so running the same trace twice yields
// byte-identical summaries; wall-clock latency, cache disposition
// (racing identical instances make hit/miss timing-dependent) and
// transport error text are all excluded. Perf is the complementary
// timing report: latency quantiles, throughput, per-class SLO
// attainment, and the jobs queue-wait/run split measured from the
// server's /metrics job counters.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// Summary is the deterministic outcome summary of a run.
type Summary struct {
	Schema   int   `json:"schema"`
	Seed     int64 `json:"seed"`
	Requests int   `json:"requests"`
	// OK counts 2xx responses; Failed is everything else including
	// transport errors.
	OK     int `json:"ok"`
	Failed int `json:"failed"`
	// Verified counts responses the server self-verified.
	Verified int `json:"verified"`
	// SizeSum accumulates the scalar results (total colors / IS sizes).
	SizeSum int64 `json:"size_sum"`
	// ByEndpoint and ByClass count requests per endpoint / class
	// (JSON-encoded with sorted keys, so the rendering is stable).
	ByEndpoint map[string]int `json:"by_endpoint"`
	ByClass    map[string]int `json:"by_class"`
	// TraceSHA256 fingerprints the request schedule (records with
	// outcomes stripped), tying a summary to the trace that produced it.
	TraceSHA256 string `json:"trace_sha256"`
	// OutcomeSHA256 digests the per-request outcome tuples
	// (seq|endpoint|class|format|ok|verified|size|key) in schedule
	// order — the byte-stable witness that two runs observed the same
	// outcomes.
	OutcomeSHA256 string `json:"outcome_sha256"`
}

// Quantiles summarizes a latency sample in milliseconds.
type Quantiles struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// ClassPerf is the per-class slice of the timing report.
type ClassPerf struct {
	Name     string    `json:"name"`
	Requests int       `json:"requests"`
	OK       int       `json:"ok"`
	Latency  Quantiles `json:"latency"`
	// SLOMillis is the class objective; SLOAttained counts OK responses
	// at or under it, and SLORatio is their fraction of the class's
	// requests (1.0 when the class has no SLO).
	SLOMillis   float64 `json:"slo_ms,omitempty"`
	SLOAttained int     `json:"slo_attained"`
	SLORatio    float64 `json:"slo_ratio"`
}

// SLOReport aggregates attainment across classes.
type SLOReport struct {
	// Attained counts OK responses within their class SLO; Ratio is
	// Attained over all requests carrying an SLO.
	Attained int     `json:"attained"`
	Eligible int     `json:"eligible"`
	Ratio    float64 `json:"ratio"`
}

// JobsSplit is the queue-wait vs run-time split of the job subsystem
// over the run, measured as the delta of the server's /metrics job
// counters (pslocal_jobs_{started,finished}_total and the wait/run
// seconds totals) between run start and end.
type JobsSplit struct {
	Started    uint64  `json:"started"`
	Finished   uint64  `json:"finished"`
	WaitSumMS  float64 `json:"wait_sum_ms"`
	RunSumMS   float64 `json:"run_sum_ms"`
	WaitMeanMS float64 `json:"wait_mean_ms"`
	RunMeanMS  float64 `json:"run_mean_ms"`
}

// Perf is the wall-clock timing report of a run.
type Perf struct {
	Schema   int `json:"schema"`
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// DurationS spans the first dispatch to the last completion.
	DurationS     float64   `json:"duration_s"`
	ThroughputRPS float64   `json:"throughput_rps"`
	Latency       Quantiles `json:"latency"`
	CacheHits     int       `json:"cache_hits"`
	CacheMisses   int       `json:"cache_misses"`
	// CacheHitRatio is CacheHits over all responses reporting a cache
	// disposition — the cluster-smoke comparison of affinity routing
	// against the round-robin control reads this number.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Backends counts OK responses per serving node (the cfgate
	// X-Pslocal-Backend tag; absent when the run hit cfserve directly).
	Backends map[string]int `json:"backends,omitempty"`
	Classes  []ClassPerf    `json:"classes"`
	SLO      SLOReport      `json:"slo"`
	// Jobs is present when the run observed the server's job counters
	// on /metrics (nil when the scrape failed or the server publishes
	// none, as cfgate does).
	Jobs *JobsSplit `json:"jobs,omitempty"`
}

// summarize builds the deterministic summary from an executed trace.
func summarize(t *Trace) Summary {
	s := Summary{
		Schema:      1,
		Seed:        t.Seed,
		Requests:    len(t.Records),
		ByEndpoint:  map[string]int{},
		ByClass:     map[string]int{},
		TraceSHA256: t.scheduleSHA256(),
	}
	h := sha256.New()
	for i := range t.Records {
		rec := &t.Records[i]
		s.ByEndpoint[rec.Endpoint]++
		s.ByClass[rec.Class]++
		var o Outcome
		if rec.Outcome != nil {
			o = *rec.Outcome
		}
		if o.OK {
			s.OK++
		} else {
			s.Failed++
		}
		if o.Verified {
			s.Verified++
		}
		s.SizeSum += int64(o.Size)
		fmt.Fprintf(h, "%d|%s|%s|%s|%t|%t|%d|%s\n",
			rec.Seq, rec.Endpoint, rec.Class, rec.Format, o.OK, o.Verified, o.Size, o.Key)
	}
	s.OutcomeSHA256 = hex.EncodeToString(h.Sum(nil))
	return s
}

// scheduleSHA256 fingerprints the request schedule independent of any
// recorded outcomes.
func (t *Trace) scheduleSHA256() string {
	h := sha256.New()
	fmt.Fprintf(h, "cfload-trace|%d|%d|%d\n", TraceSchema, t.Seed, len(t.Records))
	for i := range t.Records {
		rec := &t.Records[i]
		fmt.Fprintf(h, "%d|%d|%s|%s|%s|%+v|%+v|%g\n",
			rec.Seq, rec.AtUS, rec.Class, rec.Endpoint, rec.Format, rec.Inst, rec.Params, rec.SLOMillis)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// perfReport builds the timing report from an executed trace plus the
// observed run duration and the optional /metrics jobs delta.
func perfReport(t *Trace, durationS float64, jobs *JobsSplit) Perf {
	p := Perf{Schema: 1, Requests: len(t.Records), DurationS: durationS, Jobs: jobs}
	var all []int64
	perClass := map[string][]int64{}
	seen := map[string]bool{}
	classOrder := []string{}
	classOK := map[string]int{}
	classAttained := map[string]int{}
	classSLO := map[string]float64{}
	for i := range t.Records {
		rec := &t.Records[i]
		if !seen[rec.Class] {
			seen[rec.Class] = true
			classOrder = append(classOrder, rec.Class)
			classSLO[rec.Class] = rec.SLOMillis
		}
		o := rec.Outcome
		if o == nil || !o.OK {
			p.Errors++
			continue
		}
		all = append(all, o.LatencyUS)
		perClass[rec.Class] = append(perClass[rec.Class], o.LatencyUS)
		classOK[rec.Class]++
		switch o.Cache {
		case "hit":
			p.CacheHits++
		case "miss":
			p.CacheMisses++
		}
		if o.Backend != "" {
			if p.Backends == nil {
				p.Backends = map[string]int{}
			}
			p.Backends[o.Backend]++
		}
		if rec.SLOMillis > 0 {
			p.SLO.Eligible++
			if float64(o.LatencyUS)/1000 <= rec.SLOMillis {
				p.SLO.Attained++
				classAttained[rec.Class]++
			}
		}
	}
	p.Latency = quantiles(all)
	if durationS > 0 {
		p.ThroughputRPS = float64(len(all)) / durationS
	}
	if seen := p.CacheHits + p.CacheMisses; seen > 0 {
		p.CacheHitRatio = float64(p.CacheHits) / float64(seen)
	}
	if p.SLO.Eligible > 0 {
		p.SLO.Ratio = float64(p.SLO.Attained) / float64(p.SLO.Eligible)
	}
	sort.Strings(classOrder)
	classCount := map[string]int{}
	for i := range t.Records {
		classCount[t.Records[i].Class]++
	}
	for _, name := range classOrder {
		cp := ClassPerf{
			Name:        name,
			Requests:    classCount[name],
			OK:          classOK[name],
			Latency:     quantiles(perClass[name]),
			SLOMillis:   classSLO[name],
			SLOAttained: classAttained[name],
		}
		if classSLO[name] <= 0 {
			cp.SLORatio = 1
		} else if cp.Requests > 0 {
			cp.SLORatio = float64(cp.SLOAttained) / float64(cp.Requests)
		}
		p.Classes = append(p.Classes, cp)
	}
	return p
}

// quantiles computes the latency quantiles of a sample in microseconds,
// reported in milliseconds. Quantile q is the ceil(q*n)-th smallest
// sample (the "nearest rank" definition).
func quantiles(us []int64) Quantiles {
	if len(us) == 0 {
		return Quantiles{}
	}
	sorted := make([]int64, len(us))
	copy(sorted, us)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.9999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return float64(sorted[i]) / 1000
	}
	return Quantiles{
		MeanMS: float64(sum) / float64(len(sorted)) / 1000,
		P50MS:  rank(0.50),
		P95MS:  rank(0.95),
		P99MS:  rank(0.99),
		MaxMS:  float64(sorted[len(sorted)-1]) / 1000,
	}
}
