package main

// replay.go is the traced run's in-process, serial replay of the
// open-loop sequence. It calls each layer's public functions in the
// order cfserve reaches them and records a span around every call from
// this file, so the program itself is not instrumented. The phase loop of
// core.Reduce is replayed step by step through the public calls it is
// made of and checked to produce the identical result.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"time"

	"pslocal/internal/cfcolor"
	"pslocal/internal/core"
	"pslocal/internal/engine"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
	"pslocal/internal/solver"
	"pslocal/internal/verify"
)

// span is one timed call of the replay.
type span struct {
	Seq    int    `json:"seq"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 on a request's root span
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes,omitempty"`
	Count  int64  `json:"count,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; a disabled recorder makes every call a
// no-op, which is the untraced side of bench.trace_overhead_pct.
type recorder struct {
	on     bool
	t0     time.Time
	seq    int
	spans  []span
	sample []metrics.Sample
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (r *recorder) begin(parent int, name string) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Seq: r.seq, ID: len(r.spans), Parent: parent, Name: name,
		Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = time.Since(r.t0).Nanoseconds()
	}
}

func (r *recorder) annotate(id int, detail string, count int64) {
	if id >= 0 {
		r.spans[id].Detail, r.spans[id].Count = detail, count
	}
}

// allocs reads the process's cumulative heap allocation; the replay is
// the only goroutine allocating, so a before/after delta is the call's.
func (r *recorder) allocs() int64 {
	if !r.on {
		return 0
	}
	metrics.Read(r.sample)
	return int64(r.sample[0].Value.Uint64())
}

func (r *recorder) setAlloc(id int, before int64) {
	if id >= 0 {
		r.spans[id].Alloc = r.allocs() - before
	}
}

// replayer holds one replay's state: a Solver configured like cfserve's
// (the default cache of 128 entries, admission bound GOMAXPROCS, seed 1)
// and the recorder.
type replayer struct {
	wl  workload
	sv  *solver.Solver
	rec *recorder
	ff  core.FirstFitScratch
	buf bytes.Buffer
}

func newReplayer(wl workload, traced bool) *replayer {
	return &replayer{wl: wl, rec: newRecorder(traced),
		sv: solver.New(solver.WithCache(serverCacheEntries), solver.WithMaxInflight(-1), solver.WithSeed(1))}
}

// do replays one request. The error reports a failed call or a replica
// phase loop that disagrees with core.Reduce.
func (rp *replayer) do(ctx context.Context, r *request) error {
	c := rp.wl.classes[r.class]
	rec := rp.rec
	rec.seq = r.seq
	root := rec.begin(-1, "request")
	rec.annotate(root, c.name, 0)
	defer rec.end(root)

	id := rec.begin(root, "solver.hash")
	solver.InstanceKey(r.inst.kind, r.inst.format.String(), r.inst.body)
	rec.end(id)

	if c.endpoint == epMaxIS {
		sv := rp.sv.With(solver.WithWorkers(1), solver.WithSeed(1), solver.WithOracle(c.oracle))
		id = rec.begin(root, "solver.read")
		res, inst, err := sv.MaxISReader(ctx, bytes.NewReader(r.inst.body), r.inst.format)
		rec.end(id)
		if err != nil {
			return err
		}
		rec.annotate(id, hitMiss(inst), 0)
		if !inst.CacheHit {
			if err := rp.parse(root, r); err != nil {
				return err
			}
		}
		g := inst.Graph()
		oracle, err := maxis.Lookup(c.oracle, 1)
		if err != nil {
			return err
		}
		id = rec.begin(root, "maxis.oracle")
		set, err := maxis.OracleSolve(ctx, oracle, g)
		rec.end(id)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(set, res.Set) {
			return fmt.Errorf("request %d: direct oracle call and Solver disagree", r.seq)
		}
		id = rec.begin(root, "verify")
		err = verify.IndependentSet(g, res.Set)
		rec.end(id)
		return err
	}

	seed := int64(1)
	if c.endpoint == epJobs {
		seed = int64(r.seq + 1) // the seed parameter newRequest gave the job
	}
	sv := rp.sv.With(solver.WithK(3), solver.WithWorkers(1), solver.WithSeed(seed), solver.WithOracle(c.oracle))
	id = rec.begin(root, "solver.read")
	res, inst, err := sv.SolveReader(ctx, bytes.NewReader(r.inst.body), r.inst.format)
	rec.end(id)
	if err != nil {
		return err
	}
	rec.annotate(id, hitMiss(inst), 0)
	if !inst.CacheHit {
		if err := rp.parse(root, r); err != nil {
			return err
		}
	}
	h := inst.Hypergraph()
	opts, err := coreOptions(ctx, c.oracle, seed)
	if err != nil {
		return err
	}
	id = rec.begin(root, "core.reduce")
	ref, err := core.Reduce(ctx, h, opts)
	rec.end(id)
	if err != nil {
		return err
	}
	if opts, err = coreOptions(ctx, c.oracle, seed); err != nil {
		return err
	}
	id = rec.begin(root, "replica")
	got, err := rp.replica(ctx, id, h, opts)
	rec.end(id)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ref, got) {
		return fmt.Errorf("request %d: replica phase loop differs from core.Reduce", r.seq)
	}
	if !reflect.DeepEqual(ref, res) {
		return fmt.Errorf("request %d: Solver result differs from core.Reduce", r.seq)
	}
	if c.endpoint == epJobs {
		return nil // the job runner neither verifies nor encodes
	}
	id = rec.begin(root, "verify")
	err = verify.ReductionResult(h, res)
	if err == nil {
		err = verify.ConflictFreeMulti(h, res.Multicoloring)
	}
	rec.end(id)
	if err != nil {
		return err
	}
	rp.buf.Reset()
	id = rec.begin(root, "graphio.encode")
	err = graphio.WriteResult(&rp.buf, res)
	rec.end(id)
	return err
}

func hitMiss(inst *solver.Instance) string {
	if inst.CacheHit {
		return "hit"
	}
	return "miss"
}

// parse times the graphio parse the Solver ran on its cache miss.
func (rp *replayer) parse(parent int, r *request) error {
	rec := rp.rec
	before := rec.allocs()
	id := rec.begin(parent, "graphio.parse")
	var err error
	if r.inst.kind == solver.KindGraph {
		_, err = graphio.ReadGraph(bytes.NewReader(r.inst.body), r.inst.format)
	} else {
		_, err = graphio.ReadHypergraph(bytes.NewReader(r.inst.body), r.inst.format)
	}
	rec.end(id)
	rec.setAlloc(id, before)
	return err
}

// coreOptions resolves an oracle name the way the Solver does for a
// serial (workers=1) request.
func coreOptions(ctx context.Context, oracle string, seed int64) (core.Options, error) {
	opts := core.Options{K: 3, Engine: engine.FromWorkersFlag(1), OracleName: oracle}
	opts.Engine.Ctx = ctx
	if oracle == "implicit" {
		opts.Mode = core.ModeImplicitFirstFit
		return opts, nil
	}
	o, err := maxis.Lookup(oracle, seed)
	if err != nil {
		return opts, err
	}
	opts.Mode, opts.Oracle = core.ModeOracle, o
	return opts, nil
}

// replicaLeaves are the spans the replica loop's time is attributed to;
// core.unattributed_us is core.reduce_us minus their sum.
var replicaLeaves = map[string]bool{
	"core.index": true, "core.firstfit": true, "core.gk_build": true, "maxis.oracle": true,
	"core.ids_to_triples": true, "core.is_to_coloring": true, "cfcolor.unhappy_edges": true,
	"hypergraph.keep_edges": true,
}

// replica is core.Reduce's phase loop rebuilt from public calls: NewIndex,
// then FirstFit or BuildOpts → OracleSolve → IDsToTriples, then
// ISToColoring, UnhappyEdges and KeepEdges.
func (rp *replayer) replica(ctx context.Context, parent int, h *hypergraph.Hypergraph, opts core.Options) (*core.Result, error) {
	rec := rp.rec
	res := &core.Result{Multicoloring: cfcolor.NewMulticoloring(h.N()), K: opts.K, Weighted: h.Weighted()}
	var colored []bool
	if res.Weighted {
		colored = make([]bool, h.N())
	}
	maxPhases := 4*h.M() + 16
	cur := h
	for phase := 1; cur.M() > 0; phase++ {
		if phase > maxPhases {
			return nil, fmt.Errorf("replica: %d phases with %d edges left", maxPhases, cur.M())
		}
		ph := rec.begin(parent, "core.phase")
		id := rec.begin(ph, "core.index")
		ix, err := core.NewIndex(cur, opts.K)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		stat := core.PhaseStat{Phase: phase, EdgesBefore: cur.M(), ConflictNodes: ix.NumNodes(), ConflictEdges: -1}
		var triples []core.Triple
		if opts.Mode == core.ModeImplicitFirstFit {
			id = rec.begin(ph, "core.firstfit")
			triples = rp.ff.FirstFit(ix)
			rec.end(id)
		} else {
			before := rec.allocs()
			id = rec.begin(ph, "core.gk_build")
			g, err := core.BuildOpts(ix, opts.Engine)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			rec.setAlloc(id, before)
			rec.annotate(id, "", int64(g.M()))
			id = rec.begin(ph, "maxis.oracle")
			ids, err := maxis.OracleSolve(ctx, opts.Oracle, g)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			if !maxis.IsIndependentSet(g, ids) {
				return nil, core.ErrOracleNotIndependent
			}
			id = rec.begin(ph, "core.ids_to_triples")
			triples, err = core.IDsToTriples(ix, ids)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			stat.ConflictEdges = g.M()
		}
		stat.ISSize = len(triples)
		if res.Weighted {
			for _, t := range triples {
				stat.ISWeight += cur.Weight(t.Vertex)
			}
		}
		id = rec.begin(ph, "core.is_to_coloring")
		f, err := core.ISToColoring(ix, triples)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin(ph, "cfcolor.unhappy_edges")
		unhappy := cfcolor.UnhappyEdges(cur, f)
		rec.end(id)
		stat.HappyRemoved = cur.M() - len(unhappy)
		if stat.HappyRemoved == 0 {
			return nil, fmt.Errorf("replica: phase %d made no progress", phase)
		}
		offset := int32((phase - 1) * opts.K)
		for v := int32(0); int(v) < cur.N(); v++ {
			if f[v] != cfcolor.Uncolored {
				res.Multicoloring.Add(v, f[v]+offset)
				if colored != nil {
					colored[v] = true
				}
			}
		}
		res.Phases = append(res.Phases, stat)
		id = rec.begin(ph, "hypergraph.keep_edges")
		cur, err = cur.KeepEdges(unhappy)
		rec.end(id)
		rec.end(ph)
		if err != nil {
			return nil, err
		}
	}
	res.TotalColors = opts.K * len(res.Phases)
	for v, c := range colored {
		if c {
			res.TotalWeight += h.Weight(int32(v))
		}
	}
	return res, nil
}

// replayResult is what the traced replay measured.
type replayResult struct {
	spans     []span
	requests  int           // open-loop requests replayed with spans
	paired    int           // of those, also replayed untraced
	traced    time.Duration // wall time of the paired requests, traced
	untraced  time.Duration // the same requests, untraced
	evictions uint64        // Solver.CacheStats delta over the replay
}

// runReplay replays set-up traffic (untimed), then the open-loop sequence
// in order until budget is spent. The first quarter of the budget also
// runs every request on a second, untraced replayer with its own cache,
// alternating which goes first, to measure what the spans cost.
func runReplay(ctx context.Context, p *plan, budget time.Duration) (*replayResult, error) {
	traced, plain := newReplayer(p.wl, true), newReplayer(p.wl, false)
	traced.rec.on = false
	for _, r := range p.warmups {
		for _, rp := range []*replayer{traced, plain} {
			if err := rp.do(ctx, r); err != nil {
				return nil, fmt.Errorf("replaying set-up request %d: %w", r.seq, err)
			}
		}
	}
	traced.rec.on = true
	before := traced.sv.CacheStats().Evictions
	out := &replayResult{}
	start := time.Now()
	timed := func(rp *replayer, r *request) (time.Duration, error) {
		t0 := time.Now()
		err := rp.do(ctx, r)
		return time.Since(t0), err
	}
	for i, r := range p.open {
		elapsed := time.Since(start)
		if elapsed > budget || ctx.Err() != nil {
			break
		}
		pair := elapsed < budget/4
		if pair && i%2 == 1 {
			d, err := timed(plain, r)
			if err != nil {
				return nil, err
			}
			out.untraced += d
		}
		d, err := timed(traced, r)
		if err != nil {
			return nil, err
		}
		out.requests++
		if pair {
			out.traced += d
			out.paired++
			if i%2 == 0 {
				d, err := timed(plain, r)
				if err != nil {
					return nil, err
				}
				out.untraced += d
			}
		}
	}
	out.spans = traced.rec.spans
	out.evictions = traced.sv.CacheStats().Evictions - before
	return out, nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
