// Package loadgen is the load-generation and trace-replay harness behind
// cmd/cfload: it exercises the cfserve HTTP service the way real traffic
// does, where the bench trajectory only covers in-process hot paths.
//
// The model is an open-loop arrival process (ServeGen-style): request
// arrival times are drawn from a configurable inter-arrival distribution
// (Poisson, Gamma or Weibull, all with a common mean rate) and requests
// are dispatched at their scheduled instants whether or not earlier
// requests have completed — so, unlike a closed-loop "N workers in a
// busy loop" driver, a slow server accumulates queueing delay instead of
// silently throttling the offered load. Each request belongs to a
// weighted workload Class naming an endpoint (/v1/reduce, /v1/maxis or
// /v1/jobs), a pscgen-style instance generator with its size parameters,
// the wire formats a fresh instance draws from, the solve parameters and
// a per-class latency SLO. A configurable fraction of arrivals reuses a
// previously issued instance in its first format (HitRatio) — the same
// bytes, so the same server-side content-hash cache key — which is what
// steers the server's cache-hit ratio.
//
// Everything is deterministic from Spec.Seed: Plan expands a Spec into a
// Trace — the full schedule of requests, each with its arrival offset,
// class, format and instance generator spec — without performing any
// I/O. A Trace serializes to a versioned JSONL file (WriteTrace) and
// back (ReadTrace, strict), byte-stably, so a recorded run replays
// exactly: replaying the same trace issues the identical request
// sequence, and the outcome summary (Report.Summary) is built only from
// deterministic response fields, making replay-twice byte-identical.
// DESIGN.md ("Load generation and trace replay") records the schema and
// the determinism contract.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"pslocal/internal/graphio"
)

// Errors of the load-generation layer. Trace parsing has its own pair in
// trace.go (ErrTrace, ErrTraceSchema).
var (
	// ErrSpec reports an invalid workload specification.
	ErrSpec = errors.New("loadgen: invalid spec")
)

// Endpoint spellings accepted by Class.Endpoint.
const (
	EndpointReduce = "reduce" // POST /v1/reduce, synchronous
	EndpointMaxIS  = "maxis"  // POST /v1/maxis, synchronous
	EndpointJobs   = "jobs"   // POST /v1/jobs, asynchronous submit
)

// Arrival distribution spellings accepted by Spec.Arrival. All are
// parameterized to the common mean rate Spec.Rate; Shape tunes the
// burstiness of Gamma and Weibull (1 = both degenerate to Poisson).
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
	ArrivalWeibull = "weibull"
)

// Spec is a workload specification: everything Plan needs to expand a
// deterministic request schedule.
type Spec struct {
	// Seed drives every random choice in the plan (arrival gaps, class
	// picks, format draws, instance seeds, reuse picks).
	Seed int64 `json:"seed"`
	// Requests is the total number of arrivals to schedule.
	Requests int `json:"requests"`
	// Rate is the mean arrival rate in requests per second.
	Rate float64 `json:"rate"`
	// Arrival selects the inter-arrival distribution (default poisson).
	Arrival string `json:"arrival,omitempty"`
	// Shape is the Gamma/Weibull shape parameter (default 1; ignored for
	// poisson). Shape < 1 is burstier than Poisson, > 1 smoother.
	Shape float64 `json:"shape,omitempty"`
	// HitRatio in [0,1) is the fraction of arrivals that reuse an
	// instance issued earlier in the run (per class), which is what the
	// server-side content-hash cache-hit ratio converges to.
	HitRatio float64 `json:"hit_ratio,omitempty"`
	// Classes are the weighted workload classes.
	Classes []Class `json:"classes"`
}

// Class is one weighted workload class.
type Class struct {
	// Name labels the class in traces, summaries and SLO reports.
	Name string `json:"name"`
	// Weight is the class's relative arrival share (> 0).
	Weight float64 `json:"weight"`
	// Endpoint is reduce | maxis | jobs.
	Endpoint string `json:"endpoint"`
	// Kind/Gen and the size fields parameterize the pscgen-style
	// instance generator (see InstSpec); each fresh arrival draws a new
	// instance seed, each reused arrival repeats an earlier spec and
	// format.
	Kind   string  `json:"kind"` // graph | hypergraph
	Gen    string  `json:"gen"`  // gnp|grid|cycle|tree | planted|uniform|interval|star
	N      int     `json:"n"`
	M      int     `json:"m,omitempty"`
	K      int     `json:"k,omitempty"`
	SizeLo int     `json:"size_lo,omitempty"`
	SizeHi int     `json:"size_hi,omitempty"`
	P      float64 `json:"p,omitempty"`
	// Formats are the wire formats fresh instances draw from (uniformly
	// at random); a reused instance keeps its format. DIMACS is
	// graphs-only, enforced by Plan.
	Formats []string `json:"formats"`
	// Params are the request query parameters.
	Params Params `json:"params"`
	// SLOMillis is the class's latency objective; the perf report counts
	// the fraction of requests at or under it (0 = no SLO for the class).
	SLOMillis float64 `json:"slo_ms,omitempty"`
}

// Params are the solve parameters a request carries as query parameters;
// zero fields are omitted from the URL and take the server defaults.
type Params struct {
	K       int    `json:"k,omitempty"`
	Oracle  string `json:"oracle,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// Priority selects the queue lane for jobs submissions.
	Priority string `json:"priority,omitempty"`
}

// validate checks the spec and resolves defaults (returning a copy).
func (s Spec) validate() (Spec, error) {
	if s.Requests <= 0 {
		return s, fmt.Errorf("%w: requests must be positive (got %d)", ErrSpec, s.Requests)
	}
	if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return s, fmt.Errorf("%w: rate must be a positive number (got %v)", ErrSpec, s.Rate)
	}
	if s.Arrival == "" {
		s.Arrival = ArrivalPoisson
	}
	switch s.Arrival {
	case ArrivalPoisson, ArrivalGamma, ArrivalWeibull:
	default:
		return s, fmt.Errorf("%w: unknown arrival distribution %q (want poisson|gamma|weibull)", ErrSpec, s.Arrival)
	}
	if s.Shape == 0 {
		s.Shape = 1
	}
	if s.Shape <= 0 || math.IsNaN(s.Shape) {
		return s, fmt.Errorf("%w: shape must be positive (got %v)", ErrSpec, s.Shape)
	}
	if s.HitRatio < 0 || s.HitRatio >= 1 || math.IsNaN(s.HitRatio) {
		return s, fmt.Errorf("%w: hit ratio must be in [0,1) (got %v)", ErrSpec, s.HitRatio)
	}
	if len(s.Classes) == 0 {
		return s, fmt.Errorf("%w: at least one class required", ErrSpec)
	}
	for i, c := range s.Classes {
		if c.Name == "" {
			return s, fmt.Errorf("%w: class %d has no name", ErrSpec, i)
		}
		if c.Weight <= 0 || math.IsNaN(c.Weight) {
			return s, fmt.Errorf("%w: class %q weight must be positive", ErrSpec, c.Name)
		}
		switch c.Endpoint {
		case EndpointReduce, EndpointMaxIS, EndpointJobs:
		default:
			return s, fmt.Errorf("%w: class %q has unknown endpoint %q (want reduce|maxis|jobs)", ErrSpec, c.Name, c.Endpoint)
		}
		if err := (InstSpec{Kind: c.Kind, Gen: c.Gen, N: c.N, M: c.M, K: c.K,
			SizeLo: c.SizeLo, SizeHi: c.SizeHi, P: c.P}).validate(); err != nil {
			return s, fmt.Errorf("class %q: %w", c.Name, err)
		}
		if (c.Endpoint == EndpointReduce || c.Endpoint == EndpointJobs) && c.Kind != KindHypergraph {
			return s, fmt.Errorf("%w: class %q: endpoint %s takes hypergraph instances", ErrSpec, c.Name, c.Endpoint)
		}
		if c.Endpoint == EndpointMaxIS && c.Kind != KindGraph {
			return s, fmt.Errorf("%w: class %q: endpoint maxis takes graph instances", ErrSpec, c.Name)
		}
		if len(c.Formats) == 0 {
			return s, fmt.Errorf("%w: class %q lists no formats", ErrSpec, c.Name)
		}
		for _, fs := range c.Formats {
			f, err := graphio.ParseFormat(fs)
			if err != nil {
				return s, fmt.Errorf("class %q: %w", c.Name, err)
			}
			if f == graphio.FormatDIMACS && c.Kind == KindHypergraph {
				return s, fmt.Errorf("%w: class %q: hypergraphs have no DIMACS representation", ErrSpec, c.Name)
			}
		}
		if c.SLOMillis < 0 || math.IsNaN(c.SLOMillis) {
			return s, fmt.Errorf("%w: class %q: negative SLO", ErrSpec, c.Name)
		}
	}
	return s, nil
}

// Plan expands spec into the deterministic request schedule: arrival
// offsets drawn from the inter-arrival distribution, classes picked by
// weight, and per arrival either a fresh instance (new seed, format drawn
// uniformly) or, with probability HitRatio, an earlier instance of the
// class in the format it was first sent in. Plan performs no I/O; the
// returned trace's records carry no outcomes yet.
func Plan(spec Spec) (*Trace, error) {
	spec, err := spec.validate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	next := arrivalSampler(spec.Arrival, spec.Rate, spec.Shape)

	total := 0.0
	for _, c := range spec.Classes {
		total += c.Weight
	}
	// Per-class pool of (instance, format) pairs already issued, the
	// reuse targets: a reuse repeats the pair, so it sends the same bytes
	// and hits the same server-side cache key.
	pools := make([][]instFormat, len(spec.Classes))

	tr := &Trace{Seed: spec.Seed, Records: make([]Record, 0, spec.Requests)}
	at := 0.0 // seconds since run start
	for i := 0; i < spec.Requests; i++ {
		at += next(rng)
		ci := pickClass(rng, spec.Classes, total)
		c := &spec.Classes[ci]
		var pick instFormat
		if pool := pools[ci]; len(pool) > 0 && rng.Float64() < spec.HitRatio {
			pick = pool[rng.Intn(len(pool))]
		} else {
			pick = instFormat{
				format: c.Formats[rng.Intn(len(c.Formats))],
				inst: InstSpec{Kind: c.Kind, Gen: c.Gen, N: c.N, M: c.M, K: c.K,
					SizeLo: c.SizeLo, SizeHi: c.SizeHi, P: c.P, Seed: rng.Int63()},
			}
			pools[ci] = append(pools[ci], pick)
		}
		tr.Records = append(tr.Records, Record{
			Seq:       i,
			AtUS:      int64(at * 1e6),
			Class:     c.Name,
			Endpoint:  c.Endpoint,
			Format:    pick.format,
			Inst:      pick.inst,
			Params:    c.Params,
			SLOMillis: c.SLOMillis,
		})
	}
	return tr, nil
}

// pickClass draws a class index proportionally to the weights.
func pickClass(rng *rand.Rand, classes []Class, total float64) int {
	x := rng.Float64() * total
	for i := range classes {
		x -= classes[i].Weight
		if x < 0 {
			return i
		}
	}
	return len(classes) - 1
}

// arrivalSampler returns a sampler of inter-arrival gaps in seconds with
// mean 1/rate under the named distribution.
func arrivalSampler(dist string, rate, shape float64) func(*rand.Rand) float64 {
	switch dist {
	case ArrivalGamma:
		// Gamma(shape k, scale th) has mean k*th; th = 1/(rate*k) keeps
		// the mean gap at 1/rate for every shape.
		scale := 1 / (rate * shape)
		return func(rng *rand.Rand) float64 { return gammaSample(rng, shape, scale) }
	case ArrivalWeibull:
		// Weibull(shape k, scale l) has mean l*Gamma(1+1/k).
		scale := 1 / (rate * math.Gamma(1+1/shape))
		return func(rng *rand.Rand) float64 {
			u := rng.Float64()
			return scale * math.Pow(-math.Log1p(-u), 1/shape)
		}
	default: // poisson: exponential gaps
		return func(rng *rand.Rand) float64 { return rng.ExpFloat64() / rate }
	}
}

// gammaSample draws Gamma(shape, scale) via Marsaglia–Tsang; shapes
// below 1 use the standard power-of-uniform boost.
func gammaSample(rng *rand.Rand, shape, scale float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}
