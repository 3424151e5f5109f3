package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
	"pslocal/internal/solver"
	"pslocal/internal/verify"
)

// testHypergraph returns a small planted instance.
func testHypergraph(t *testing.T, seed int64) *hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, _, err := hypergraph.PlantedCF(24, 10, 2, 2, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// testBody serializes the seed's instance as an edge list.
func testBody(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.WriteHypergraph(&buf, testHypergraph(t, seed), graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awaitCtx is the per-assertion watchdog.
func awaitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

var oracleSeq atomic.Int64

// registerOracle installs o under a unique registry name for this test
// run (the registry is global and permanent).
func registerOracle(t *testing.T, o maxis.Oracle) string {
	t.Helper()
	name := fmt.Sprintf("jobs-test-%d", oracleSeq.Add(1))
	maxis.MustRegister(name, func(int64) maxis.Oracle { return o })
	return name
}

// gateOracle signals each Solve entry and parks until released (or its
// engine context dies), then delegates to a real oracle — so tests hold a
// worker mid-job deterministically and still let the job complete.
type gateOracle struct {
	mu      sync.Mutex
	eng     engine.Options
	started chan struct{}
	release chan struct{}
	inner   maxis.Oracle
}

func newGateOracle(t *testing.T) *gateOracle {
	t.Helper()
	inner, err := maxis.Lookup("greedy-mindeg", 1)
	if err != nil {
		t.Fatal(err)
	}
	return &gateOracle{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		inner:   inner,
	}
}

func (o *gateOracle) Name() string { return "jobs-test-gate" }

func (o *gateOracle) SetEngine(e engine.Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.eng = e
}

func (o *gateOracle) Solve(g *graph.Graph) ([]int32, error) {
	o.mu.Lock()
	ctx := o.eng.Context()
	o.mu.Unlock()
	select {
	case o.started <- struct{}{}:
	default:
	}
	select {
	case <-o.release:
		return o.inner.Solve(g)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flakyOracle fails its first n Solve calls with a transient error, then
// delegates.
type flakyOracle struct {
	fails atomic.Int32
	inner maxis.Oracle
}

func newFlakyOracle(t *testing.T, fails int32) *flakyOracle {
	t.Helper()
	inner, err := maxis.Lookup("greedy-mindeg", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := &flakyOracle{inner: inner}
	o.fails.Store(fails)
	return o
}

func (o *flakyOracle) Name() string { return "jobs-test-flaky" }

func (o *flakyOracle) Solve(g *graph.Graph) ([]int32, error) {
	if o.fails.Add(-1) >= 0 {
		return nil, fmt.Errorf("%w: synthetic backend fault", ErrTransient)
	}
	return o.inner.Solve(g)
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestAwaitDoneContextWinsOverFinishedJob: once the job is terminal its
// watch channel is closed too, and a done context must still win on
// every call, not on a coin flip between two ready channels.
func TestAwaitDoneContextWinsOverFinishedJob(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	info, accepted, err := m.Submit(Request{Body: testBody(t, 1), Params: Params{K: 2}, Priority: PriorityNormal})
	if err != nil || !accepted {
		t.Fatalf("Submit = %+v, %v, %v", info, accepted, err)
	}
	if final, err := m.Await(awaitCtx(t), info.ID); err != nil || !final.State.Terminal() {
		t.Fatalf("Await = %+v, %v", final, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		if _, err := m.Await(ctx, info.ID); !errors.Is(err, context.Canceled) {
			t.Fatalf("try %d: err = %v, want context.Canceled", i, err)
		}
	}
}

func TestJobLifecycleDone(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, Config{Dir: dir, Workers: 2, QueueCap: 8})
	body := testBody(t, 1)
	info, accepted, err := m.Submit(Request{Body: body, Params: Params{K: 2}, Priority: PriorityNormal})
	if err != nil || !accepted {
		t.Fatalf("Submit = %+v, %v, %v", info, accepted, err)
	}
	if info.State != StateQueued || len(info.ID) != 64 {
		t.Fatalf("submitted info = %+v", info)
	}

	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("final = %+v", final)
	}
	if final.N != 24 || final.M != 10 || final.TotalColors == 0 || final.PhaseCount == 0 {
		t.Errorf("result summary = %+v", final)
	}
	if final.StartedAt.IsZero() || final.FinishedAt.Before(final.StartedAt) {
		t.Errorf("timestamps out of order: %+v", final)
	}

	res, err := m.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ConflictFreeMulti(testHypergraph(t, 1), res.Multicoloring); err != nil {
		t.Errorf("job result not conflict-free: %v", err)
	}
	// The persisted document exists and round-trips through ReadResult.
	f, err := os.Open(m.ResultPath(info.ID))
	if err != nil {
		t.Fatalf("persisted result missing: %v", err)
	}
	defer f.Close()
	back, err := graphio.ReadResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalColors != res.TotalColors || len(back.Phases) != len(res.Phases) {
		t.Errorf("persisted doc %+v differs from result %+v", back, res)
	}

	st := m.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 || st.Running != 0 || st.QueueDepth != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMemoryOnlyResultMatchesSolve pins what a memory-only manager keeps
// of a done job: Result rebuilds exactly the solve's result, including
// the nil colour lists of uncoloured vertices and the weight fields.
func TestMemoryOnlyResultMatchesSolve(t *testing.T) {
	base := testHypergraph(t, 3)
	ws := make([]int64, base.N())
	for v := range ws {
		ws[v] = int64(1 + v%5)
	}
	weighted, err := hypergraph.NewWeighted(base.N(), base.Edges(), ws)
	if err != nil {
		t.Fatal(err)
	}
	instances := map[string]*hypergraph.Hypergraph{
		// The three vertices past base.N() lie in no edge: never coloured.
		"uncoloured": hypergraph.MustNew(base.N()+3, base.Edges()),
		"weighted":   weighted,
	}
	params := Params{K: 2, Oracle: "greedy-mindeg"}
	for name, h := range instances {
		var buf bytes.Buffer
		if err := graphio.WriteHypergraph(&buf, h, graphio.FormatEdgeList); err != nil {
			t.Fatal(err)
		}
		want, _, err := solver.New().With(params.options()...).SolveReader(
			context.Background(), bytes.NewReader(buf.Bytes()), graphio.FormatEdgeList)
		if err != nil {
			t.Fatalf("%s: solve: %v", name, err)
		}
		if name == "uncoloured" && want.Multicoloring[h.N()-1] != nil {
			t.Fatalf("%s: isolated vertex coloured %v", name, want.Multicoloring[h.N()-1])
		}
		if want.Weighted != (name == "weighted") {
			t.Fatalf("%s: Weighted = %v", name, want.Weighted)
		}

		m := newManager(t, Config{Workers: 1})
		info, _, err := m.Submit(Request{Body: buf.Bytes(), Format: "edgelist", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if final, err := m.Await(awaitCtx(t), info.ID); err != nil || final.State != StateDone {
			t.Fatalf("%s: job ended %+v, %v", name, final, err)
		}
		got, err := m.Result(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Result = %+v, want the solve's %+v", name, got, want)
		}
	}
}

func TestSubmitDedupe(t *testing.T) {
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	body := testBody(t, 2)
	req := Request{Body: body, Params: Params{K: 2, Oracle: "greedy-mindeg"}, Priority: PriorityNormal}
	first, accepted, err := m.Submit(req)
	if err != nil || !accepted {
		t.Fatalf("first submit: %v %v", accepted, err)
	}
	if _, err := m.Await(awaitCtx(t), first.ID); err != nil {
		t.Fatal(err)
	}
	second, accepted, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if accepted || second.ID != first.ID || second.State != StateDone {
		t.Errorf("resubmission = %+v accepted=%v, want dedupe onto %s", second, accepted, first.ID)
	}
	// Different parameters are a different job.
	third, accepted, err := m.Submit(Request{Body: body, Params: Params{K: 3, Oracle: "greedy-mindeg"}})
	if err != nil || !accepted || third.ID == first.ID {
		t.Errorf("changed params: id %s accepted=%v err=%v", third.ID, accepted, err)
	}
	if st := m.Stats(); st.Deduped != 1 || st.Submitted != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	if _, _, err := m.Submit(Request{}); !errors.Is(err, graphio.ErrFormat) {
		t.Errorf("empty body error = %v, want ErrFormat", err)
	}
	if _, _, err := m.Submit(Request{Body: []byte("x"), Format: "xml"}); !errors.Is(err, graphio.ErrUnknownFormat) {
		t.Errorf("bad format error = %v, want ErrUnknownFormat", err)
	}
	if _, _, err := m.Submit(Request{Body: []byte("x"), Priority: Priority(9)}); err == nil {
		t.Error("out-of-range priority accepted")
	}
}

func TestQueueFullSurfacesAtSubmit(t *testing.T) {
	gate := newGateOracle(t)
	name := registerOracle(t, gate)
	m := newManager(t, Config{Workers: 1, QueueCap: 1})
	// Occupy the single worker.
	if _, _, err := m.Submit(Request{Body: testBody(t, 3), Params: Params{K: 2, Oracle: name}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("gate job never started")
	}
	// Fill the queue, then overflow it.
	if _, _, err := m.Submit(Request{Body: testBody(t, 4), Params: Params{K: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(Request{Body: testBody(t, 5), Params: Params{K: 2}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow error = %v, want ErrQueueFull", err)
	}
	close(gate.release)
}

func TestCancelQueuedJob(t *testing.T) {
	gate := newGateOracle(t)
	name := registerOracle(t, gate)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	if _, _, err := m.Submit(Request{Body: testBody(t, 6), Params: Params{K: 2, Oracle: name}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("gate job never started")
	}
	queued, _, err := m.Submit(Request{Body: testBody(t, 7), Params: Params{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled || got.FinishedAt.IsZero() {
		t.Fatalf("cancelled queued job = %+v", got)
	}
	// Cancel is idempotent on terminal jobs.
	again, err := m.Cancel(queued.ID)
	if err != nil || again.State != StateCancelled {
		t.Errorf("second cancel = %+v, %v", again, err)
	}
	close(gate.release)
	if st := m.Stats(); st.Cancelled != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown id = %v, want ErrNotFound", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	gate := newGateOracle(t)
	name := registerOracle(t, gate)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{Body: testBody(t, 8), Params: Params{K: 2, Oracle: name}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	if got, err := m.Cancel(info.ID); err != nil || got.State != StateRunning {
		t.Fatalf("cancel of running job = %+v, %v (transition is asynchronous)", got, err)
	}
	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled || final.Error == "" {
		t.Fatalf("final = %+v, want cancelled with an error message", final)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	gate := newGateOracle(t) // never released: the deadline must fire
	name := registerOracle(t, gate)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{
		Body:     testBody(t, 9),
		Params:   Params{K: 2, Oracle: name},
		Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("deadline-expired job = %+v, want failed (cancelled is reserved for explicit Cancel)", final)
	}
	if !strings.Contains(final.Error, "cancel") && !strings.Contains(final.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", final.Error)
	}
}

func TestRetryOnTransient(t *testing.T) {
	flaky := newFlakyOracle(t, 2)
	name := registerOracle(t, flaky)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{
		Body:       testBody(t, 10),
		Params:     Params{K: 2, Oracle: name},
		MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("final = %+v, want done after transient retries", final)
	}
	if final.Retries != 2 {
		t.Errorf("retries = %d, want 2", final.Retries)
	}
	if st := m.Stats(); st.Retries != 2 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNoRetryWithoutBudget(t *testing.T) {
	flaky := newFlakyOracle(t, 1)
	name := registerOracle(t, flaky)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{Body: testBody(t, 11), Params: Params{K: 2, Oracle: name}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Retries != 0 {
		t.Fatalf("final = %+v, want failed with no retries", final)
	}
	if !errors.Is(ErrTransient, ErrTransient) || !strings.Contains(final.Error, "transient") {
		t.Errorf("error %q lost the transient cause", final.Error)
	}
}

// TestResubmitAfterFailureReruns pins the retry-by-resubmission
// contract: done jobs dedupe forever, but a failed (or cancelled) job is
// re-enqueued by an identical Submit — otherwise one transient outage
// would make that instance permanently unrunnable against the store.
func TestResubmitAfterFailureReruns(t *testing.T) {
	flaky := newFlakyOracle(t, 1) // first run fails, any later run succeeds
	name := registerOracle(t, flaky)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	req := Request{Body: testBody(t, 50), Params: Params{K: 2, Oracle: name}}
	first, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := m.Await(awaitCtx(t), first.ID); err != nil || final.State != StateFailed {
		t.Fatalf("first run = %+v, %v, want failed", final, err)
	}
	again, accepted, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !accepted || again.ID != first.ID || again.State != StateQueued {
		t.Fatalf("resubmission = %+v accepted=%v, want the same id re-enqueued", again, accepted)
	}
	final, err := m.Await(awaitCtx(t), again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Error != "" || final.Retries != 0 {
		t.Fatalf("re-run = %+v, want a clean done", final)
	}
	if st := m.Stats(); st.Submitted != 2 || st.Deduped != 0 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Now that it is done, further identical submissions dedupe.
	if _, accepted, _ := m.Submit(req); accepted {
		t.Error("resubmission of a done job re-ran it")
	}
}

func TestNonTransientNeverRetries(t *testing.T) {
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{
		Body:       testBody(t, 12),
		Params:     Params{K: 2, Oracle: "nonesuch"},
		MaxRetries: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Retries != 0 {
		t.Fatalf("final = %+v, want failed without retries", final)
	}
}

func TestWatchDeliversLifecycle(t *testing.T) {
	gate := newGateOracle(t)
	name := registerOracle(t, gate)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{Body: testBody(t, 13), Params: Params{K: 2, Oracle: name}})
	if err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Watch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var states []State
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				if states[len(states)-1] != StateDone {
					t.Fatalf("event states %v do not end in done", states)
				}
				// The first event reports the state at subscription time;
				// every following transition arrives in order.
				for i := 1; i < len(states); i++ {
					if states[i-1] == StateDone {
						t.Fatalf("events after terminal: %v", states)
					}
				}
				if _, _, err := m.Watch(info.ID); err != nil {
					t.Fatalf("watch of terminal job: %v", err)
				}
				return
			}
			if ev.ID != info.ID {
				t.Fatalf("event for wrong job: %+v", ev)
			}
			states = append(states, ev.State)
			if ev.State == StateRunning {
				// The gate holds the job running; the gauges that count
				// it moved before the event announced it.
				if st := m.Stats(); st.Running != 1 || st.Started != 1 {
					t.Fatalf("at the running event: running %d, started %d; want 1 and 1", st.Running, st.Started)
				}
				close(gate.release)
			}
		case <-deadline:
			t.Fatalf("watch never terminated; states so far %v", states)
		}
	}
}

func TestWatchOfTerminalJobClosesImmediately(t *testing.T) {
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	info, _, err := m.Submit(Request{Body: testBody(t, 14), Params: Params{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Await(awaitCtx(t), info.ID); err != nil {
		t.Fatal(err)
	}
	ch, stop, err := m.Watch(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ev, ok := <-ch
	if !ok || ev.State != StateDone {
		t.Fatalf("first event = %+v/%v, want the terminal state", ev, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel stayed open after the terminal event")
	}
}

func TestPriorityOrdering(t *testing.T) {
	gate := newGateOracle(t)
	name := registerOracle(t, gate)
	m := newManager(t, Config{Workers: 1, QueueCap: 8})
	// Hold the single worker so the next submissions queue up.
	blocker, _, err := m.Submit(Request{Body: testBody(t, 15), Params: Params{K: 2, Oracle: name}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never started")
	}
	low, _, err := m.Submit(Request{Body: testBody(t, 16), Params: Params{K: 2}, Priority: PriorityLow})
	if err != nil {
		t.Fatal(err)
	}
	high, _, err := m.Submit(Request{Body: testBody(t, 17), Params: Params{K: 2}, Priority: PriorityHigh})
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	for _, id := range []string{blocker.ID, low.ID, high.ID} {
		if final, err := m.Await(awaitCtx(t), id); err != nil || final.State != StateDone {
			t.Fatalf("job %s: %+v, %v", id, final, err)
		}
	}
	lowInfo, _ := m.Get(low.ID)
	highInfo, _ := m.Get(high.ID)
	if !highInfo.StartedAt.Before(lowInfo.StartedAt) {
		t.Errorf("high-priority job started %v, after low-priority %v",
			highInfo.StartedAt, lowInfo.StartedAt)
	}
}

func TestListFilters(t *testing.T) {
	m := newManager(t, Config{Workers: 2, QueueCap: 16})
	var ids []string
	for i := int64(20); i < 24; i++ {
		label := "even"
		if i%2 == 1 {
			label = "odd"
		}
		info, _, err := m.Submit(Request{Body: testBody(t, i), Params: Params{K: 2}, Label: label})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	bad, _, err := m.Submit(Request{Body: testBody(t, 24), Params: Params{K: 2, Oracle: "nonesuch"}, Label: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(ids, bad.ID) {
		if _, err := m.Await(awaitCtx(t), id); err != nil {
			t.Fatal(err)
		}
	}
	if all := m.List(Filter{}); len(all) != 5 {
		t.Fatalf("List() = %d jobs, want 5", len(all))
	}
	if done := m.List(Filter{State: StateDone}); len(done) != 4 {
		t.Errorf("done filter = %d, want 4", len(done))
	}
	if failed := m.List(Filter{State: StateFailed}); len(failed) != 1 || failed[0].ID != bad.ID {
		t.Errorf("failed filter = %+v", failed)
	}
	if odd := m.List(Filter{Label: "odd"}); len(odd) != 2 {
		t.Errorf("label filter = %d, want 2", len(odd))
	}
	if limited := m.List(Filter{Limit: 2}); len(limited) != 2 || limited[0].ID != ids[0] {
		t.Errorf("limit filter = %+v, want the 2 oldest", limited)
	}
}

// TestRecoveryAcrossRestart is the acceptance criterion: a completed job
// survives a manager restart over the same store directory — the rescan
// restores it, its result document reads back, and resubmitting the same
// body dedupes onto the recovered job instead of re-running it.
func TestRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := testBody(t, 30)
	req := Request{Body: body, Params: Params{K: 2, Oracle: "greedy-mindeg"}, Priority: PriorityHigh}

	first, err := New(Config{Dir: dir, Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := first.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Await(awaitCtx(t), info.ID); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second, err := New(Config{Dir: dir, Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	got, err := second.Get(info.ID)
	if err != nil {
		t.Fatalf("recovered job not found: %v", err)
	}
	if got.State != StateDone || !got.Recovered || got.Priority != PriorityHigh ||
		got.Params != req.Params || got.N != 24 {
		t.Fatalf("recovered job = %+v", got)
	}
	res, err := second.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.ConflictFreeMulti(testHypergraph(t, 30), res.Multicoloring); err != nil {
		t.Errorf("recovered result not conflict-free: %v", err)
	}
	resub, accepted, err := second.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if accepted || resub.ID != info.ID {
		t.Errorf("resubmission after restart re-ran the job: %+v accepted=%v", resub, accepted)
	}
	if st := second.Stats(); st.Recovered != 1 || st.Deduped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCloseResolvesQueuedAndRunning(t *testing.T) {
	gate := newGateOracle(t) // never released: Close must cancel it
	name := registerOracle(t, gate)
	m, err := New(Config{Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	running, _, err := m.Submit(Request{Body: testBody(t, 31), Params: Params{K: 2, Oracle: name}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	queued, _, err := m.Submit(Request{Body: testBody(t, 32), Params: Params{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if got, _ := m.Get(queued.ID); got.State != StateCancelled {
		t.Errorf("queued job after Close = %+v, want cancelled", got)
	}
	if st := m.Stats(); st.QueueDepth != 0 || st.Running != 0 {
		t.Errorf("gauges after Close: queue depth %d, running %d; want 0 and 0", st.QueueDepth, st.Running)
	}
	if got, _ := m.Get(running.ID); !got.State.Terminal() {
		t.Errorf("running job after Close = %+v, want terminal", got)
	}
	if _, _, err := m.Submit(Request{Body: testBody(t, 33)}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

// TestConcurrentSubmitters hammers one manager from many goroutines —
// the race detector (CI runs this package under -race) is the real
// assertion.
func TestConcurrentSubmitters(t *testing.T) {
	m := newManager(t, Config{Workers: 4, QueueCap: 256, Solver: solver.New(solver.WithCache(16))})
	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers*4)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int64(0); i < 3; i++ {
				info, _, err := m.Submit(Request{
					Body:     testBody(t, 40+i), // deliberately colliding ids across goroutines
					Params:   Params{K: 2},
					Priority: Priority(int(i) % numPriorities),
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := m.Await(awaitCtx(t), info.ID); err != nil {
					errs <- err
					return
				}
				if _, err := m.Get(info.ID); err != nil {
					errs <- err
				}
				m.List(Filter{State: StateDone})
				m.Stats()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := m.Stats()
	if st.Submitted+st.Deduped != callers*3 {
		t.Errorf("submitted %d + deduped %d, want %d total", st.Submitted, st.Deduped, callers*3)
	}
	if st.Submitted != 3 || st.Completed != 3 {
		t.Errorf("stats = %+v, want 3 unique jobs completed", st)
	}
}
