package main

// workload.go defines the three serving workloads and expands a seed into
// the exact request sequence a run sends. Every body is generated here,
// before any timing starts, and kept next to the generator's own object so
// answers are checked against what was sent, not against a re-parse.

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/solver"
)

// serverCacheEntries is cfserve's default -cache-entries; the cold
// workload's self-check simulates an LRU of this size plus a margin.
const serverCacheEntries = 128

// Endpoint kinds of a class.
const (
	epReduce = "reduce"
	epMaxIS  = "maxis"
	epJobs   = "jobs"
)

// instance is one generated input: its wire body in a pinned format and
// the generator's object the answer is verified against.
type instance struct {
	kind   string // solver.KindHypergraph or solver.KindGraph
	format graphio.Format
	body   []byte
	h      *hypergraph.Hypergraph // nil for graphs; see graph()
	spec   genSpec
	seed   int64
}

// genSpec describes how a class's instances are generated.
type genSpec struct {
	gen        string  // "planted" (hypergraph) or "gnp" (graph)
	nLo, nHi   int     // n drawn uniformly from [nLo, nHi]
	mPerN      float64 // m = mPerN·n
	sizeLo     int
	sizeHi     int
	p          float64
	formats    []graphio.Format // pinned round-robin by instance index
	poolSize   int
	warmupSize int // extra instances used only during set-up (cold)
}

// class is one weighted request class of a workload.
type class struct {
	name     string
	endpoint string
	oracle   string
	weight   float64
	// limit is the latency limit a successful request must meet to count
	// in slo_pct.
	limit time.Duration
	gen   genSpec
	// poolOf names another class whose pool this class draws from (hot
	// jobs reuse the reduce pool, so they hit the cache too).
	poolOf string
}

// workload is one named traffic mix.
type workload struct {
	name    string
	gateway bool    // route through cfgate in front of two cfserve backends
	hot     bool    // skewed picks from a primed pool; else round-robin cold pools
	rate    float64 // open-loop Poisson arrival rate, req/s
	// maxRPS bounds the closed-loop rate the sequence is sized for, with
	// ample headroom over the capacity measured when the rates were set.
	maxRPS  float64
	classes []class
}

// hotRate is the shared open-loop rate of both hot workloads: about 30%
// of the gateway path's closed-loop capacity (see README.md, "Rates").
const hotRate = 600

// coldRate is about 30% of the cold mix's closed-loop capacity: at half,
// queueing amplified the host's run-to-run CPU steal into median
// latencies that moved by half between runs.
const coldRate = 75

func hotClasses() []class {
	return []class{
		{name: "reduce", endpoint: epReduce, oracle: "implicit", weight: 0.55, limit: 10 * time.Millisecond,
			gen: genSpec{gen: "planted", nLo: 200, nHi: 200, mPerN: 0.4, sizeLo: 4, sizeHi: 6,
				formats: []graphio.Format{graphio.FormatEdgeList, graphio.FormatJSON}, poolSize: 32}},
		{name: "maxis", endpoint: epMaxIS, oracle: "greedy-mindeg", weight: 0.40, limit: 10 * time.Millisecond,
			gen: genSpec{gen: "gnp", nLo: 200, nHi: 200, p: 0.05,
				formats: []graphio.Format{graphio.FormatEdgeList, graphio.FormatDIMACS, graphio.FormatJSON}, poolSize: 32}},
		{name: "jobs", endpoint: epJobs, oracle: "implicit", weight: 0.05, limit: 10 * time.Millisecond, poolOf: "reduce"},
	}
}

func coldClasses() []class {
	return []class{
		{name: "reduce", endpoint: epReduce, oracle: "greedy-mindeg", weight: 0.45, limit: 250 * time.Millisecond,
			gen: genSpec{gen: "planted", nLo: 300, nHi: 400, mPerN: 1, sizeLo: 2, sizeHi: 3,
				formats: []graphio.Format{graphio.FormatEdgeList, graphio.FormatJSON}, poolSize: 128, warmupSize: 4}},
		{name: "maxis", endpoint: epMaxIS, oracle: "greedy-mindeg-bitset", weight: 0.30, limit: 250 * time.Millisecond,
			gen: genSpec{gen: "gnp", nLo: 512, nHi: 512, p: 0.3,
				formats: []graphio.Format{graphio.FormatEdgeList}, poolSize: 96, warmupSize: 4}},
		{name: "jobs", endpoint: epJobs, oracle: "greedy-mindeg", weight: 0.25, limit: 250 * time.Millisecond,
			gen: genSpec{gen: "planted", nLo: 300, nHi: 400, mPerN: 1, sizeLo: 2, sizeHi: 3,
				formats: []graphio.Format{graphio.FormatEdgeList, graphio.FormatJSON}, poolSize: 96, warmupSize: 4}},
	}
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{name: "hot-direct", hot: true, rate: hotRate, maxRPS: 15000, classes: hotClasses()},
		{name: "hot-gateway", hot: true, gateway: true, rate: hotRate, maxRPS: 15000, classes: hotClasses()},
		{name: "cold-direct", rate: coldRate, maxRPS: 1500, classes: coldClasses()},
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want hot-direct|hot-gateway|cold-direct)", name)
}

// request is one scheduled request of a run.
type request struct {
	seq   int
	class int // index into workload.classes
	inst  *instance
	// path is the URL path and query, identical on every target.
	path string
	// at is the scheduled send offset from the start of the open loop.
	at time.Duration
}

// plan is everything a run sends, generated from the seed before timing.
type plan struct {
	wl      workload
	warmups []*request // set-up traffic: priming (hot) or warm-up (cold)
	open    []*request
	closed  []*request
	paths   map[pathKey]string // interned paths of synchronous requests
}

type pathKey struct {
	class int
	inst  *instance
}

// Job labels group each phase's jobs for GET /v1/jobs?label=…
const (
	labelOpen   = "perfbench-open"
	labelClosed = "perfbench-closed"
)

// closedSeqBase offsets closed-loop sequence numbers so job identities
// (which hash the seed parameter) never collide with open-loop ones.
const closedSeqBase = 1 << 24

// buildPlan expands the workload for seed: instance pools, the set-up
// traffic, the open-loop schedule of ceil(rate·openDur) Poisson arrivals,
// and a closed-loop sequence of ceil(maxRPS·closedDur) requests.
func buildPlan(wl workload, seed int64, openDur, closedDur time.Duration) (*plan, error) {
	p := &plan{wl: wl, paths: map[pathKey]string{}}
	pools := make([][]*instance, len(wl.classes)) // per class; poolOf classes alias their source
	warm := make([][]*instance, len(wl.classes))
	for ci, c := range wl.classes {
		if c.poolOf != "" {
			continue
		}
		insts, err := genPool(c.gen, seed, ci)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", c.name, err)
		}
		pools[ci] = insts[:c.gen.poolSize]
		warm[ci] = insts[c.gen.poolSize:]
	}
	for ci, c := range wl.classes {
		if c.poolOf == "" {
			continue
		}
		src := wl.classIndex(c.poolOf)
		if src < 0 {
			return nil, fmt.Errorf("class %s: pool %q not found", c.name, c.poolOf)
		}
		pools[ci] = pools[src]
	}

	seq := 0
	if wl.hot {
		// Priming sends every pool instance once through its own class.
		for ci, c := range wl.classes {
			if c.poolOf != "" {
				continue
			}
			for _, inst := range pools[ci] {
				p.warmups = append(p.warmups, p.newRequest(seq, ci, inst, ""))
				seq++
			}
		}
	} else {
		for ci := range wl.classes {
			for _, inst := range warm[ci] {
				p.warmups = append(p.warmups, p.newRequest(seq, ci, inst, "perfbench-warmup"))
				seq++
			}
		}
	}

	rng := rand.New(rand.NewSource(seed*7919 + 17))
	pick := newPicker(wl, pools, rng)
	n := int(math.Ceil(wl.rate * openDur.Seconds()))
	var at float64
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() / wl.rate
		ci, inst := pick.next()
		r := p.newRequest(i, ci, inst, labelOpen)
		r.at = time.Duration(at * float64(time.Second))
		p.open = append(p.open, r)
	}
	closedLen := int(math.Ceil(wl.maxRPS * closedDur.Seconds()))
	for i := 0; i < closedLen; i++ {
		ci, inst := pick.next()
		p.closed = append(p.closed, p.newRequest(closedSeqBase+i, ci, inst, labelClosed))
	}
	return p, nil
}

func (wl workload) classIndex(name string) int {
	for i, c := range wl.classes {
		if c.name == name {
			return i
		}
	}
	return -1
}

// newRequest renders the request URL. Jobs carry their sequence number as
// the seed parameter: the deterministic oracles ignore it, but it is part
// of the job identity, so a resubmitted body runs again instead of
// deduplicating onto an earlier job.
func (p *plan) newRequest(seq, ci int, inst *instance, label string) *request {
	c := p.wl.classes[ci]
	key := pathKey{ci, inst}
	if path, ok := p.paths[key]; ok {
		return &request{seq: seq, class: ci, inst: inst, path: path}
	}
	q := url.Values{}
	q.Set("format", inst.format.String())
	q.Set("oracle", c.oracle)
	switch c.endpoint {
	case epReduce:
		q.Set("k", "3")
	case epJobs:
		q.Set("k", "3")
		q.Set("seed", strconv.Itoa(seq+1))
		q.Set("label", label)
	}
	path := "/v1/" + c.endpoint + "?" + q.Encode()
	if c.endpoint != epJobs {
		p.paths[key] = path
	}
	return &request{seq: seq, class: ci, inst: inst, path: path}
}

// picker chooses the class and instance of each arrival. Classes follow a
// smooth weighted round-robin, so every prefix of the sequence holds each
// class in its exact share whatever the seed; instances are Zipf-skewed
// within a hot pool, or walked round-robin through a cold pool so a body
// comes back only after the cache has evicted it.
type picker struct {
	wl     workload
	pools  [][]*instance
	rng    *rand.Rand
	zipf   []*rand.Zipf
	cursor []int
	credit []float64
	total  float64
}

func newPicker(wl workload, pools [][]*instance, rng *rand.Rand) *picker {
	pk := &picker{wl: wl, pools: pools, rng: rng, zipf: make([]*rand.Zipf, len(pools)),
		cursor: make([]int, len(pools)), credit: make([]float64, len(pools))}
	for ci, c := range wl.classes {
		pk.total += c.weight
		if wl.hot {
			pk.zipf[ci] = rand.NewZipf(rng, 1.1, 8, uint64(len(pools[ci])-1))
		} else {
			pk.cursor[ci] = rng.Intn(len(pools[ci]))
		}
	}
	return pk
}

func (pk *picker) next() (int, *instance) {
	ci := 0
	for i, c := range pk.wl.classes {
		pk.credit[i] += c.weight
		if pk.credit[i] > pk.credit[ci] {
			ci = i
		}
	}
	pk.credit[ci] -= pk.total
	pool := pk.pools[ci]
	if pk.wl.hot {
		return ci, pool[pk.zipf[ci].Uint64()]
	}
	i := pk.cursor[ci]
	pk.cursor[ci] = (i + 1) % len(pool)
	return ci, pool[i]
}

// genPool generates poolSize+warmupSize instances of one class. Instance
// seeds derive from the run seed and the class index only, so hot-direct
// and hot-gateway generate identical pools.
func genPool(s genSpec, seed int64, ci int) ([]*instance, error) {
	out := make([]*instance, s.poolSize+s.warmupSize)
	for i := range out {
		inst := &instance{spec: s, seed: seed*1_000_003 + int64(ci)*100_003 + int64(i),
			format: s.formats[i%len(s.formats)]}
		h, g, err := s.generate(inst.seed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if h != nil {
			inst.kind, inst.h = solver.KindHypergraph, h
			err = graphio.WriteHypergraph(&buf, h, inst.format)
		} else {
			inst.kind = solver.KindGraph
			err = graphio.WriteGraph(&buf, g, inst.format)
		}
		if err != nil {
			return nil, err
		}
		inst.body = buf.Bytes()
		out[i] = inst
	}
	return out, nil
}

// generate builds the hypergraph (planted) or graph (gnp) for seed.
func (s genSpec) generate(seed int64) (*hypergraph.Hypergraph, *graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := s.nLo
	if s.nHi > s.nLo {
		n += rng.Intn(s.nHi - s.nLo + 1)
	}
	switch s.gen {
	case "planted":
		h, _, err := hypergraph.PlantedCF(n, int(s.mPerN*float64(n)), 3, s.sizeLo, s.sizeHi, rng)
		return h, nil, err
	case "gnp":
		return nil, graph.GnP(n, s.p, rng), nil
	}
	return nil, nil, fmt.Errorf("unknown generator %q", s.gen)
}

// graph regenerates a graph instance. Dense graphs are rebuilt for the
// answer check instead of being held for the whole run next to their
// bodies.
func (in *instance) graph() *graph.Graph {
	_, g, _ := in.spec.generate(in.seed) // generated without error once already
	return g
}

// digest is a sha256 over the set-up, open and closed sequences as sent:
// scheduled offset, path and body hash of every request. Two workloads
// with equal digests send byte-identical traffic.
func (p *plan) digest() string {
	sums := map[*instance][sha256.Size]byte{}
	h := sha256.New()
	for _, seq := range [][]*request{p.warmups, p.open, p.closed} {
		for _, r := range seq {
			sum, ok := sums[r.inst]
			if !ok {
				sum = sha256.Sum256(r.inst.body)
				sums[r.inst] = sum
			}
			fmt.Fprintf(h, "%d %s %x\n", r.at.Nanoseconds(), r.path, sum)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coldReuseCheck replays the whole sequence through an LRU of the
// server's cache size plus margin and reports the first request that
// would hit. With none, every request misses on the server even when two
// closed-loop clients or the job queue reorder neighbours by up to margin.
func (p *plan) coldReuseCheck(margin int) error {
	capacity := serverCacheEntries + margin
	order := list.New()
	items := map[*instance]*list.Element{}
	for _, seq := range [][]*request{p.warmups, p.open, p.closed} {
		for _, r := range seq {
			if _, ok := items[r.inst]; ok {
				return fmt.Errorf("request %d reuses an instance within %d distinct others", r.seq, capacity)
			}
			items[r.inst] = order.PushFront(r.inst)
			for order.Len() > capacity {
				back := order.Back()
				order.Remove(back)
				delete(items, back.Value.(*instance))
			}
		}
	}
	return nil
}
