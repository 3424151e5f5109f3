package jobs

// adopt_test.go covers the cluster-mode store semantics: Drain finishing
// in-flight work while refusing new submissions, and the store as a
// shared substrate — a manager pointed at a directory another manager
// wrote adopts its terminal results (by full Rescan or by a lookup of
// one id) instead of re-running them.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainWaitsForRunningJob holds a job mid-solve with the gate
// oracle, starts Drain, checks Drain refuses new submissions while
// waiting, releases the oracle, and requires Drain to return with the
// job done and persisted.
func TestDrainWaitsForRunningJob(t *testing.T) {
	dir := t.TempDir()
	oracle := newGateOracle(t)
	name := registerOracle(t, oracle)
	m := newManager(t, Config{Dir: dir, Workers: 1})

	info, accepted, err := m.Submit(Request{Body: testBody(t, 1), Params: Params{Oracle: name}})
	if err != nil || !accepted {
		t.Fatalf("Submit: accepted=%t err=%v", accepted, err)
	}
	select {
	case <-oracle.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started solving")
	}

	ctx := awaitCtx(t)
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(ctx) }()

	// Drain must mark the manager before it returns; poll for the flag,
	// then check admissions are refused while the job is still running.
	deadline := time.Now().Add(5 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never set the draining flag")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := m.Submit(Request{Body: testBody(t, 2), Params: Params{Oracle: name}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: err=%v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a job was still running", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(oracle.release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	final, err := m.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job after drain: state %s (error %q), want done", final.State, final.Error)
	}
	if _, err := m.Result(info.ID); err != nil {
		t.Fatalf("Result after drain: %v", err)
	}
	if !m.Stats().Draining {
		t.Fatal("Stats().Draining = false after Drain")
	}
}

// TestDrainContextExpiry bounds Drain with an already-short context
// while a job is parked and checks the context error surfaces without
// the manager un-draining.
func TestDrainContextExpiry(t *testing.T) {
	oracle := newGateOracle(t)
	name := registerOracle(t, oracle)
	m := newManager(t, Config{Workers: 1})
	if _, _, err := m.Submit(Request{Body: testBody(t, 1), Params: Params{Oracle: name}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-oracle.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started solving")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with expired context: %v", err)
	}
	if !m.Draining() {
		t.Fatal("manager un-drained after a bounded Drain expired")
	}
	close(oracle.release)
}

// TestRescanAdoptsPeerResults runs jobs to completion under one manager
// and checks a second manager over the same directory serves them by id
// after Rescan — without re-running anything (its own counters stay at
// zero starts).
func TestRescanAdoptsPeerResults(t *testing.T) {
	dir := t.TempDir()
	writer := newManager(t, Config{Dir: dir, Workers: 2})
	ids := make([]string, 0, 3)
	for seed := int64(1); seed <= 3; seed++ {
		info, _, err := writer.Submit(Request{Body: testBody(t, seed)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		final, err := writer.Await(awaitCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("writer job %s: state %s", id, final.State)
		}
	}

	// The reader joins over the same directory: construction recovery
	// picks up the three finished jobs, and a fourth job the writer
	// finishes AFTER the reader exists exercises the post-construction
	// adoption paths (Get fallback, then Rescan).
	reader := newManager(t, Config{Dir: dir, Workers: 2})
	lateInfo, _, err := writer.Submit(Request{Body: testBody(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := writer.Await(awaitCtx(t), lateInfo.ID); err != nil || final.State != StateDone {
		t.Fatalf("late job: %v / %v", final, err)
	}
	if _, err := reader.Get(lateInfo.ID); err != nil {
		// The Get fallback may already adopt it; only a hard failure on
		// both paths is a bug. Force the explicit Rescan path too.
		t.Fatalf("reader Get(late) before rescan: %v", err)
	}

	adopted, err := reader.Rescan()
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 {
		// Everything was already visible (construction recovery + the Get
		// fallback); Rescan must dedupe on the sha256 id, not duplicate.
		t.Fatalf("Rescan adopted %d jobs that were already registered", adopted)
	}
	for _, id := range append(ids, lateInfo.ID) {
		info, err := reader.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateDone || !info.Recovered {
			t.Fatalf("reader job %s: state=%s recovered=%t", id, info.State, info.Recovered)
		}
		res, err := reader.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalColors < 1 {
			t.Fatalf("adopted result for %s has no colors", id)
		}
	}
	if st := reader.Stats(); st.Started != 0 {
		t.Fatalf("reader ran %d jobs; adoption must not re-run", st.Started)
	}
	// Resubmitting an adopted done job dedupes onto it.
	info, accepted, err := reader.Submit(Request{Body: testBody(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if accepted || info.State != StateDone {
		t.Fatalf("resubmission of adopted job: accepted=%t state=%s", accepted, info.State)
	}
}

// TestRescanAdoptsConcurrently hammers Rescan and Get from several
// goroutines while a peer manager is still writing — the adoption paths
// must be race-clean and never double-register an id.
func TestRescanAdoptsConcurrently(t *testing.T) {
	dir := t.TempDir()
	writer := newManager(t, Config{Dir: dir, Workers: 2})
	reader := newManager(t, Config{Dir: dir, Workers: 2})

	ids := make([]string, 0, 6)
	for seed := int64(10); seed < 16; seed++ {
		info, _, err := writer.Submit(Request{Body: testBody(t, seed)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if _, err := reader.Rescan(); err != nil {
					t.Error(err)
					return
				}
				for _, id := range ids {
					_, _ = reader.Get(id) // miss is fine while the writer runs
				}
			}
		}()
	}
	for _, id := range ids {
		if _, err := writer.Await(awaitCtx(t), id); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if _, err := reader.Rescan(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, info := range reader.List(Filter{}) {
		seen[info.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("job %s registered %d times after concurrent adoption", id, seen[id])
		}
	}
}

// TestGetFallbackIgnoresGarbageIDs checks the store fallback validates
// ids before touching the filesystem, for every method that takes one.
func TestGetFallbackIgnoresGarbageIDs(t *testing.T) {
	m := newManager(t, Config{Dir: t.TempDir()})
	for _, id := range []string{"", "nope", strings.Repeat("z", 64), "../../etc/passwd"} {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q): %v, want ErrNotFound", id, err)
		}
		if _, _, err := m.Watch(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Watch(%q): %v, want ErrNotFound", id, err)
		}
		if _, err := m.Cancel(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Cancel(%q): %v, want ErrNotFound", id, err)
		}
	}
	// A path-shaped id must never escape the store directory.
	if p := m.ResultPath(strings.Repeat("a", 64)); !strings.HasPrefix(p, filepath.Clean(m.store.dir)) {
		t.Fatalf("ResultPath escaped the store: %s", p)
	}
}

// TestWatchAndCancelAdoptPeerJob checks that every method taking an id
// reads the shared store on a registry miss, not only Get: a node asked
// first to Watch or to Cancel a job a peer ran adopts it once and
// answers with its terminal state.
func TestWatchAndCancelAdoptPeerJob(t *testing.T) {
	dir := t.TempDir()
	writer := newManager(t, Config{Dir: dir, Workers: 1})
	// The readers exist before the job does, so construction recovery
	// cannot pick it up; only a lookup can.
	watchFirst := newManager(t, Config{Dir: dir, Workers: 1})
	cancelFirst := newManager(t, Config{Dir: dir, Workers: 1})
	id := runJob(t, writer, Request{Body: testBody(t, 50)}).ID
	writer.Close() // returns once the job document is written

	watch := func(t *testing.T, m *Manager) {
		ch, stop, err := m.Watch(id)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		defer stop()
		if ev, ok := <-ch; !ok || ev.State != StateDone {
			t.Fatalf("first event %+v (open %t), want done", ev, ok)
		}
		if ev, ok := <-ch; ok {
			t.Fatalf("event %+v after the terminal one, want a closed channel", ev)
		}
	}
	cancel := func(t *testing.T, m *Manager) {
		info, err := m.Cancel(id)
		if err != nil || info.State != StateDone || !info.Recovered {
			t.Fatalf("Cancel = %+v, %v; want the recovered done job", info, err)
		}
	}
	for _, tc := range []struct {
		name          string
		m             *Manager
		first, second func(*testing.T, *Manager)
	}{
		{"watch first", watchFirst, watch, cancel},
		{"cancel first", cancelFirst, cancel, watch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.first(t, tc.m)
			tc.second(t, tc.m)
			if st := tc.m.Stats(); st.Adopted != 1 || st.Started != 0 {
				t.Errorf("adopted %d and started %d, want the job adopted once and not run", st.Adopted, st.Started)
			}
		})
	}
}

// TestPeerAdoptsFullSnapshotAfterAwait: once a job's terminal event has
// fired on the manager that ran it, its metadata document is in the
// store, so a peer that looks the id up adopts the full snapshot (label,
// params, request id) and not a stripped one built from the result
// document alone. Every try is a fresh job the peer has never seen.
func TestPeerAdoptsFullSnapshotAfterAwait(t *testing.T) {
	dir := t.TempDir()
	runner := newManager(t, Config{Dir: dir, Workers: 1})
	peer := newManager(t, Config{Dir: dir, Workers: 1})
	body := testBody(t, 60)
	ctx := awaitCtx(t)
	const tries = 200
	stripped := 0
	for i := range tries {
		req := Request{
			Body:      body,
			Params:    Params{K: 2, Seed: int64(i + 1)},
			Label:     "try-" + strconv.Itoa(i),
			RequestID: "peer-rid-" + strconv.Itoa(i),
		}
		info, _, err := runner.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if final, err := runner.Await(ctx, info.ID); err != nil || final.State != StateDone {
			t.Fatalf("try %d: %+v / %v", i, final, err)
		}
		got, err := peer.Get(info.ID)
		if err != nil {
			t.Fatalf("try %d: peer Get: %v", i, err)
		}
		if got.Label != req.Label || got.Params != req.Params || got.RequestID != req.RequestID {
			stripped++
		}
	}
	if stripped > 0 {
		t.Fatalf("%d of %d peer lookups after Await adopted a stripped job", stripped, tries)
	}
}

// TestLookupReadsStoreLikeRecovery writes a result document beside a job
// document that names another id (a mislabelled or hand-copied file).
// Startup recovery adopts the result as a done job; a lookup on a
// running manager reads the store by the same rule.
func TestLookupReadsStoreLikeRecovery(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, Config{Dir: dir}) // exists before the files do
	id, other := strings.Repeat("ab", 32), strings.Repeat("cd", 32)
	res := sampleResult(t)
	if err := m.store.writeResult(id, res); err != nil {
		t.Fatal(err)
	}
	if err := m.store.writeJob(Info{ID: other, State: StateFailed, Error: "another job"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, other+jobSuffix), filepath.Join(dir, id+jobSuffix)); err != nil {
		t.Fatal(err)
	}
	restarted := newManager(t, Config{Dir: dir})
	for name, mgr := range map[string]*Manager{"lookup": m, "recovery": restarted} {
		info, err := mgr.Get(id)
		if err != nil || info.State != StateDone || info.TotalColors != res.TotalColors {
			t.Errorf("%s: Get = %+v, %v; want the result document's done job", name, info, err)
		}
	}
	if got, err := m.Result(id); err != nil || got.TotalColors != res.TotalColors {
		t.Errorf("Result = %+v, %v", got, err)
	}
	if st := m.Stats(); st.Adopted != 1 {
		t.Errorf("adopted %d, want 1", st.Adopted)
	}
}

// TestDrainNeverOvertakesSubmit races Drain against a Submit whose body
// takes a while to hash. Either may win, but Drain must not report a
// drained manager while the submitted job is accepted and not terminal.
// The gate oracle is never released, so an accepted job stays live
// until Close cancels it.
func TestDrainNeverOvertakesSubmit(t *testing.T) {
	// 64 KiB of comments lengthen the hash; the parse skips them.
	body := append(testBody(t, 1), bytes.Repeat([]byte("#"+strings.Repeat(".", 62)+"\n"), 1024)...)
	req := Request{Body: body, Params: Params{Oracle: registerOracle(t, newGateOracle(t))}}
	for try := 0; try < 50; try++ {
		m := newManager(t, Config{Workers: 1})
		var (
			info      Info
			accepted  bool
			submitErr error
		)
		// Spin rather than block until the submitter runs: a goroutine
		// woken by a channel would wait behind the whole Submit.
		var submitting atomic.Bool
		submitted := make(chan struct{})
		go func() {
			defer close(submitted)
			submitting.Store(true)
			info, accepted, submitErr = m.Submit(req)
		}()
		for !submitting.Load() {
			runtime.Gosched()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		drainErr := m.Drain(ctx)
		cancel()
		<-submitted
		var state State
		if accepted {
			got, err := m.Get(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			state = got.State
		}
		m.Close()
		if submitErr != nil && !errors.Is(submitErr, ErrDraining) {
			t.Fatalf("try %d: Submit: %v", try, submitErr)
		}
		if drainErr == nil && accepted && !state.Terminal() {
			t.Fatalf("try %d: Drain returned nil while the accepted job was %s", try, state)
		}
	}
}
