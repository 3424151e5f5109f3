package solver

// answer_test.go covers the answer store of the instance cache: a repeat
// of the same instance and strategy inputs returns the first call's
// result, equal to what a cacheless Solver computes; any input the
// strategy reads separates answers; failures are never stored; answers
// leave with their entry; and a hit allocates only the Instance.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
	"pslocal/internal/obs"
	"pslocal/internal/verify"
)

// read runs the reader for body's kind: MaxISReader when maxIS is set,
// SolveReader otherwise. The result is a *core.Result or an *ISResult.
func read(t testing.TB, ctx context.Context, sv *Solver, body []byte, maxIS bool) (any, *Instance) {
	t.Helper()
	var (
		res  any
		inst *Instance
		err  error
	)
	if maxIS {
		res, inst, err = sv.MaxISReader(ctx, bytes.NewReader(body), graphio.FormatAuto)
	} else {
		res, inst, err = sv.SolveReader(ctx, bytes.NewReader(body), graphio.FormatAuto)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, inst
}

// weightedHypergraphBody is testInstance's hypergraph with skewed vertex
// weights, as an edge list.
func weightedHypergraphBody(t *testing.T) []byte {
	t.Helper()
	h, _ := testInstance(t, 8)
	ws := make([]int64, h.N())
	for v := range ws {
		ws[v] = int64(1 + v%7)
	}
	wh, err := hypergraph.NewWeighted(h.N(), h.Edges(), ws)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteHypergraph(&buf, wh, graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnswerStoreReturnsFirstResult(t *testing.T) {
	ctx := context.Background()
	_, hbody := testInstance(t, 1)
	gbody := benchGraphBody(t, 64, 0.2)
	for _, tc := range []struct {
		name  string
		opts  []Option
		body  []byte
		maxIS bool
	}{
		{"implicit", []Option{WithK(2)}, hbody, false},
		{"exact", []Option{WithK(2), WithOracle("exact")}, hbody, false},
		{"greedy-mindeg", []Option{WithK(2), WithOracle("greedy-mindeg")}, hbody, false},
		{"greedy-random seed 1", []Option{WithK(2), WithOracle("greedy-random"), WithSeed(1)}, hbody, false},
		{"greedy-random seed 2", []Option{WithK(2), WithOracle("greedy-random"), WithSeed(2)}, hbody, false},
		{"portfolio", []Option{WithK(2), WithOracle("portfolio:greedy-mindeg,greedy-random"), WithWorkers(2)}, hbody, false},
		{"weighted reduce", []Option{WithK(2), WithOracle("greedy-mindeg")}, weightedHypergraphBody(t), false},
		{"maxis greedy-mindeg", []Option{WithOracle("greedy-mindeg")}, gbody, true},
		{"maxis carving", []Option{WithCarving(0)}, gbody, true},
		{"maxis weighted", []Option{WithOracle("greedy-mindeg")}, benchWeightedGraphBody(t, 64, 0.2), true},
	} {
		sv := New(append([]Option{WithCache(4)}, tc.opts...)...)
		first, inst := read(t, ctx, sv, tc.body, tc.maxIS)
		if inst.AnswerHit {
			t.Errorf("%s: first call answered from an empty store", tc.name)
		}
		second, inst := read(t, ctx, sv, tc.body, tc.maxIS)
		if !inst.CacheHit || !inst.AnswerHit {
			t.Errorf("%s: second call CacheHit=%v AnswerHit=%v, want both", tc.name, inst.CacheHit, inst.AnswerHit)
		}
		if second != first {
			t.Errorf("%s: the answer is not the first call's result", tc.name)
		}
		want, _ := read(t, ctx, New(tc.opts...), tc.body, tc.maxIS)
		if !reflect.DeepEqual(second, want) {
			t.Errorf("%s: stored answer %+v, a cacheless Solver computes %+v", tc.name, second, want)
		}
		if st := sv.CacheStats(); st.AnswerHits != 1 || st.AnswerMisses != 1 {
			t.Errorf("%s: answer hits %d misses %d, want 1 and 1", tc.name, st.AnswerHits, st.AnswerMisses)
		}
	}
}

// TestAnswerKeyInputs pins the key rule: every input the resolved
// strategy reads separates answers, and inputs it ignores do not.
func TestAnswerKeyInputs(t *testing.T) {
	ctx := context.Background()
	_, hbody := testInstance(t, 2)
	gbody := benchGraphBody(t, 48, 0.2)
	for _, tc := range []struct {
		name          string
		first, second []Option
		maxIS         bool
		hit           bool
	}{
		{"implicit ignores the seed", []Option{WithSeed(1)}, []Option{WithSeed(2)}, false, true},
		{"implicit ignores workers", []Option{WithWorkers(1)}, []Option{WithWorkers(2)}, false, true},
		{"exact ignores the seed", []Option{WithOracle("exact"), WithSeed(1)}, []Option{WithOracle("exact"), WithSeed(2)}, false, true},
		{"implicit reads k", []Option{WithK(2)}, []Option{WithK(3)}, false, false},
		{"exact reads k", []Option{WithOracle("exact"), WithK(2)}, []Option{WithOracle("exact"), WithK(3)}, false, false},
		{"implicit is not exact", nil, []Option{WithOracle("exact")}, false, false},
		{"\"\" is implicit", []Option{WithOracle("")}, []Option{WithOracle("implicit")}, false, true},
		{"registry reads the seed", []Option{WithOracle("greedy-mindeg"), WithSeed(1)}, []Option{WithOracle("greedy-mindeg"), WithSeed(2)}, false, false},
		{"registry reads workers", []Option{WithOracle("greedy-mindeg"), WithWorkers(1)}, []Option{WithOracle("greedy-mindeg"), WithWorkers(2)}, false, false},
		{"registry reads k", []Option{WithOracle("greedy-mindeg"), WithK(2)}, []Option{WithOracle("greedy-mindeg"), WithK(3)}, false, false},
		{"maxis reads the seed", []Option{WithSeed(1)}, []Option{WithSeed(2)}, true, false},
		{"maxis reads workers", []Option{WithWorkers(1)}, []Option{WithWorkers(2)}, true, false},
		{"maxis \"\" is greedy-mindeg", nil, []Option{WithOracle("greedy-mindeg")}, true, true},
		{"maxis ignores k", []Option{WithK(2)}, []Option{WithK(3)}, true, true},
		{"carving reads delta", []Option{WithCarving(1)}, []Option{WithCarving(0.5)}, true, false},
		{"carving resolves delta 0 to 1", []Option{WithCarving(0)}, []Option{WithCarving(1)}, true, true},
		{"carving ignores the seed", []Option{WithCarving(1), WithSeed(1)}, []Option{WithCarving(1), WithSeed(2)}, true, true},
		{"carving is not an oracle", nil, []Option{WithCarving(1)}, true, false},
	} {
		body := hbody
		if tc.maxIS {
			body = gbody
		}
		sv := New(WithCache(4), WithK(2))
		read(t, ctx, sv.With(tc.first...), body, tc.maxIS)
		_, inst := read(t, ctx, sv.With(tc.second...), body, tc.maxIS)
		if inst.AnswerHit != tc.hit {
			t.Errorf("%s: AnswerHit = %v, want %v", tc.name, inst.AnswerHit, tc.hit)
		}
	}
}

var oracleSeq atomic.Int64

// registerOracle installs o under a registry name unique to this test
// run (the registry is global and permanent, and -count reruns tests).
func registerOracle(o maxis.Oracle) string {
	name := fmt.Sprintf("solver-answer-test-%d", oracleSeq.Add(1))
	maxis.MustRegister(name, func(int64) maxis.Oracle { return o })
	return name
}

// failFirstOracle fails its first Solve, or with stall set parks it
// until its engine context is cancelled; every later Solve delegates to
// greedy-mindeg.
type failFirstOracle struct {
	stall   bool
	started chan struct{}

	mu    sync.Mutex
	eng   engine.Options
	calls int
}

func (o *failFirstOracle) Name() string { return "solver-answer-test" }

func (o *failFirstOracle) SetEngine(e engine.Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.eng = e
}

func (o *failFirstOracle) Solve(g *graph.Graph) ([]int32, error) {
	o.mu.Lock()
	o.calls++
	first, ctx := o.calls == 1, o.eng.Context()
	o.mu.Unlock()
	switch {
	case first && o.stall:
		close(o.started)
		<-ctx.Done()
		return nil, ctx.Err()
	case first:
		return nil, fmt.Errorf("synthetic oracle fault")
	}
	inner, err := maxis.Lookup("greedy-mindeg", 1)
	if err != nil {
		return nil, err
	}
	return inner.Solve(g)
}

func (o *failFirstOracle) callCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls
}

// TestFailedSolvesAreNotStored: neither an oracle error nor a cancelled
// solve leaves an answer, so the next call runs the strategy again, and
// only its success is stored.
func TestFailedSolvesAreNotStored(t *testing.T) {
	_, body := testInstance(t, 3)
	for _, stall := range []bool{false, true} {
		o := &failFirstOracle{stall: stall, started: make(chan struct{})}
		sv := New(WithK(2), WithCache(4), WithOracle(registerOracle(o)))
		ctx, cancel := context.WithCancel(context.Background())
		if stall {
			go func() {
				<-o.started
				cancel()
			}()
		}
		if _, _, err := sv.SolveReader(ctx, bytes.NewReader(body), graphio.FormatAuto); err == nil {
			t.Fatalf("stall=%v: the first solve succeeded", stall)
		}
		cancel()
		_, inst := read(t, context.Background(), sv, body, false)
		if inst.AnswerHit {
			t.Errorf("stall=%v: a failed solve left an answer", stall)
		}
		calls := o.callCount()
		if calls < 2 {
			t.Errorf("stall=%v: the strategy did not run again (%d calls)", stall, calls)
		}
		if _, inst := read(t, context.Background(), sv, body, false); !inst.AnswerHit || o.callCount() != calls {
			t.Errorf("stall=%v: the successful solve was not stored (hit %v, calls %d → %d)",
				stall, inst.AnswerHit, calls, o.callCount())
		}
	}
}

func TestAnswersLeaveWithTheirEntry(t *testing.T) {
	ctx := context.Background()
	_, a := testInstance(t, 4)
	_, b := testInstance(t, 5)
	sv := New(WithK(2), WithCache(1))
	read(t, ctx, sv, a, false)
	if _, inst := read(t, ctx, sv, a, false); !inst.AnswerHit {
		t.Fatal("repeat not answered from the store")
	}
	read(t, ctx, sv, b, false) // evicts a, and its answer with it
	if _, inst := read(t, ctx, sv, a, false); inst.CacheHit || inst.AnswerHit {
		t.Errorf("evicted instance: CacheHit=%v AnswerHit=%v, want neither", inst.CacheHit, inst.AnswerHit)
	}

	// One entry keeps answerSlots answers: a fifth key evicts one of the
	// first four.
	var key string
	for k := 2; k < 2+answerSlots+1; k++ {
		_, inst := read(t, ctx, sv.With(WithK(k)), a, false)
		key = inst.Key
	}
	e, ok := sv.cache.getBytes([]byte(key))
	if !ok {
		t.Fatal("entry missing")
	}
	kept := 0
	for k := 2; k < 2+answerSlots; k++ {
		if _, ok := e.answers.get(answerKey{strategy: "implicit", k: k}); ok {
			kept++
		}
	}
	if kept != answerSlots-1 {
		t.Errorf("%d of the first %d answers kept, want %d", kept, answerSlots, answerSlots-1)
	}
	if _, ok := e.answers.get(answerKey{strategy: "implicit", k: 2 + answerSlots}); !ok {
		t.Error("the fifth answer was not stored")
	}
}

// TestAnswerHitAllocatesOnlyTheInstance pins the hit path's one
// allocation, the *Instance the reader returns, traced or not, and the
// traced hit's spans: one answer span marked hit and no phase.
func TestAnswerHitAllocatesOnlyTheInstance(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the line is checked in the non-race run")
	}
	_, hbody := testInstance(t, 6)
	gbody := benchGraphBody(t, 64, 0.3)
	tr := obs.NewTrace("alloc", "alloc-req-id")
	traced := obs.ContextWithTrace(context.Background(), tr)
	sv := New(WithK(2), WithCache(4))
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		body  []byte
		maxIS bool
	}{
		{"reduce", context.Background(), hbody, false},
		{"reduce traced", traced, hbody, false},
		{"maxis", context.Background(), gbody, true},
		{"maxis traced", traced, gbody, true},
	} {
		r := bytes.NewReader(tc.body)
		hit := func() {
			tr.Reset("alloc", "alloc-req-id")
			r.Reset(tc.body)
			var (
				inst *Instance
				err  error
			)
			if tc.maxIS {
				_, inst, err = sv.MaxISReader(tc.ctx, r, graphio.FormatAuto)
			} else {
				_, inst, err = sv.SolveReader(tc.ctx, r, graphio.FormatAuto)
			}
			if err != nil || !inst.AnswerHit {
				t.Fatalf("%s: not an answer hit (%v)", tc.name, err)
			}
		}
		read(t, tc.ctx, sv, tc.body, tc.maxIS)
		for i := 0; i < 4; i++ {
			hit()
		}
		if allocs := testing.AllocsPerRun(50, hit); allocs != 1 {
			t.Errorf("%s: answer hit allocates %.1f objects per op, want 1 (the Instance)", tc.name, allocs)
		}
		if tc.ctx != traced {
			continue
		}
		answers := 0
		for _, sp := range tr.Snapshot().Spans {
			switch sp.Name {
			case "answer":
				answers++
				if sp.Detail != "hit" {
					t.Errorf("%s: answer span detail %q, want hit", tc.name, sp.Detail)
				}
			case "phase", "oracle_solve", "carving_solve":
				t.Errorf("%s: answered call recorded a %s span", tc.name, sp.Name)
			}
		}
		if answers != 1 {
			t.Errorf("%s: %d answer spans, want 1", tc.name, answers)
		}
	}
}

// TestConcurrentAnswerHits reads one stored answer from many goroutines;
// under -race it proves sharing the read-only result is safe.
func TestConcurrentAnswerHits(t *testing.T) {
	h, body := testInstance(t, 7)
	sv := New(WithK(2), WithCache(4), WithOracle("greedy-mindeg"))
	first, _ := read(t, context.Background(), sv, body, false)
	const callers, calls = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, callers*calls)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				res, inst, err := sv.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto)
				switch {
				case err != nil:
					errs <- err
				case !inst.AnswerHit || any(res) != first:
					errs <- fmt.Errorf("call %d: not the stored answer (hit %v)", j, inst.AnswerHit)
				default:
					if err := verify.ReductionResult(h, res); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sv.CacheStats(); st.AnswerHits != callers*calls || st.AnswerMisses != 1 {
		t.Errorf("answer hits %d misses %d, want %d and 1", st.AnswerHits, st.AnswerMisses, callers*calls)
	}
}

// benchHypergraphBody serialises a hot-workload-sized planted instance
// (n 200, m 80, edges of 4–6 vertices) as an edge list.
func benchHypergraphBody(tb testing.TB) []byte {
	tb.Helper()
	h, _, err := hypergraph.PlantedCF(200, 80, 3, 4, 6, rand.New(rand.NewSource(9)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteHypergraph(&buf, h, graphio.FormatEdgeList); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
