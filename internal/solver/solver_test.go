package solver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pslocal/internal/engine"
	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/maxis"
	"pslocal/internal/verify"
)

// testInstance returns a small planted hypergraph and its serialized
// edge-list form.
func testInstance(t *testing.T, seed int64) (*hypergraph.Hypergraph, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, _, err := hypergraph.PlantedCF(24, 10, 2, 2, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graphio.WriteHypergraph(&buf, h, graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	return h, buf.Bytes()
}

func TestSolveModes(t *testing.T) {
	h, _ := testInstance(t, 1)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default implicit", nil},
		{"oracle exact spelling", []Option{WithOracle("exact")}},
		{"oracle implicit spelling", []Option{WithOracle("implicit")}},
		{"registry oracle", []Option{WithOracle("greedy-mindeg")}},
		{"portfolio", []Option{WithOracle("portfolio:greedy-mindeg,greedy-random"), WithWorkers(0)}},
	} {
		sv := New(append([]Option{WithK(2)}, tc.opts...)...)
		res, err := sv.Solve(context.Background(), h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := verify.ReductionResult(h, res); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err := verify.ConflictFreeMulti(h, res.Multicoloring); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestSolveUnknownOracle(t *testing.T) {
	h, _ := testInstance(t, 1)
	if _, err := New(WithOracle("nonesuch")).Solve(context.Background(), h); !errors.Is(err, maxis.ErrUnknownOracle) {
		t.Errorf("error = %v, want ErrUnknownOracle", err)
	}
	if _, err := New(WithOracle("nonesuch")).MaxIS(context.Background(), graph.Cycle(5)); !errors.Is(err, maxis.ErrUnknownOracle) {
		t.Errorf("MaxIS error = %v, want ErrUnknownOracle", err)
	}
}

func TestMaxISOracleAndCarving(t *testing.T) {
	g := graph.Cycle(24)
	res, err := New().MaxIS(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle != "greedy-mindeg" || len(res.Set) == 0 {
		t.Errorf("oracle result %+v", res)
	}
	if err := verify.IndependentSet(g, res.Set); err != nil {
		t.Error(err)
	}

	carved, err := New(WithCarving(1.0)).MaxIS(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if carved.Locality < 1 || carved.RadiusBound < carved.Locality {
		t.Errorf("carving locality %d outside [1, %d]", carved.Locality, carved.RadiusBound)
	}
	if err := verify.IndependentSet(g, carved.Set); err != nil {
		t.Error(err)
	}
}

// TestParallelSolveSharedSolver hammers one Solver from many goroutines —
// the race detector (make race / CI) proves per-call oracle instantiation
// keeps concurrent solves independent even for the stateful portfolio.
func TestParallelSolveSharedSolver(t *testing.T) {
	h, body := testInstance(t, 2)
	sv := New(
		WithK(2),
		WithOracle("portfolio:greedy-mindeg,greedy-random,clique-removal"),
		WithWorkers(0),
		WithCache(8),
		WithMaxInflight(4),
	)
	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sv.Solve(context.Background(), h)
			if err != nil {
				errs <- err
				return
			}
			if err := verify.ConflictFreeMulti(h, res.Multicoloring); err != nil {
				errs <- err
			}
			if _, _, err := sv.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := sv.InFlight(); got != 0 {
		t.Errorf("InFlight after quiescence = %d, want 0", got)
	}
}

// TestCacheCountersExact pins the cache bookkeeping: N submissions of one
// body are exactly 1 miss and N-1 hits, and a second body occupies a
// second entry.
func TestCacheCountersExact(t *testing.T) {
	_, body := testInstance(t, 3)
	_, body2 := testInstance(t, 4)
	sv := New(WithK(2), WithCache(4))
	const n = 5
	for i := 0; i < n; i++ {
		res, inst, err := sv.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || inst.Kind != "hypergraph" {
			t.Fatalf("submission %d: result %v instance %+v", i, res, inst)
		}
		if wantHit := i > 0; inst.CacheHit != wantHit {
			t.Errorf("submission %d: CacheHit = %v, want %v", i, inst.CacheHit, wantHit)
		}
	}
	if _, _, err := sv.SolveReader(context.Background(), bytes.NewReader(body2), graphio.FormatAuto); err != nil {
		t.Fatal(err)
	}
	stats := sv.CacheStats()
	if stats.Hits != n-1 || stats.Misses != 2 || stats.Entries != 2 || stats.Evictions != 0 {
		t.Errorf("stats = %+v, want %d hits, 2 misses, 2 entries, 0 evictions", stats, n-1)
	}
}

// TestWithSharesCacheAndGate pins the With contract: derived solvers hit
// the originating solver's cache and occupy its gate.
func TestWithSharesCacheAndGate(t *testing.T) {
	_, body := testInstance(t, 5)
	base := New(WithK(2), WithCache(4), WithMaxInflight(3))
	if _, _, err := base.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto); err != nil {
		t.Fatal(err)
	}
	derived := base.With(WithOracle("greedy-mindeg"), WithSeed(9), WithCache(999), WithMaxInflight(999))
	_, inst, err := derived.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.CacheHit {
		t.Error("derived solver missed the shared cache")
	}
	if derived.MaxInFlight() != 3 {
		t.Errorf("derived MaxInFlight = %d, want the base gate's 3", derived.MaxInFlight())
	}
	if base.CacheStats().Hits != 1 {
		t.Errorf("base cache stats = %+v, want the derived hit recorded", base.CacheStats())
	}

	// Gate slots are counted jointly: a solve held open on the derived
	// solver occupies the base solver's gate (and vice versa), which is
	// what lets one server-wide admission bound govern every per-request
	// derivation.
	h, _ := testInstance(t, 5)
	blocked := base.With(WithOracle(blockingName()), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := blocked.Solve(ctx, h)
		errc <- err
	}()
	select {
	case <-blockInstance.started:
	case <-time.After(5 * time.Second):
		t.Fatal("derived solve never started")
	}
	if base.InFlight() != 1 || derived.InFlight() != 1 || blocked.InFlight() != 1 {
		t.Errorf("in-flight counts base=%d derived=%d blocked=%d, want 1 everywhere (one shared gate)",
			base.InFlight(), derived.InFlight(), blocked.InFlight())
	}
	cancel()
	if err := <-errc; !errors.Is(err, ErrCancelled) {
		t.Errorf("blocked solve error = %v, want ErrCancelled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for base.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("gate slot never released after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingOracle parks Solve until its context (delivered through
// SetEngine by the reduction) is cancelled.
type blockingOracle struct {
	mu      sync.Mutex
	eng     engine.Options
	started chan struct{}
}

func (o *blockingOracle) Name() string { return "solver-test-block" }

func (o *blockingOracle) SetEngine(e engine.Options) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.eng = e
}

func (o *blockingOracle) Solve(*graph.Graph) ([]int32, error) {
	o.mu.Lock()
	ctx := o.eng.Context()
	o.mu.Unlock()
	select {
	case o.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

var (
	registerBlocking sync.Once
	blockInstance    = &blockingOracle{started: make(chan struct{}, 16)}
)

func blockingName() string {
	registerBlocking.Do(func() {
		maxis.MustRegister(blockInstance.Name(), func(int64) maxis.Oracle { return blockInstance })
	})
	return blockInstance.Name()
}

// TestCancellationMidSolve cancels a Solve while its phase oracle is
// running: the call must return ErrCancelled (also matching
// context.Canceled) and leave no goroutine behind.
func TestCancellationMidSolve(t *testing.T) {
	h, _ := testInstance(t, 6)
	sv := New(WithK(2), WithOracle(blockingName()), WithWorkers(2))
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sv.Solve(ctx, h)
		errc <- err
	}()
	select {
	case <-blockInstance.started:
	case <-time.After(5 * time.Second):
		t.Fatal("oracle never started solving")
	}
	cancel()
	var err error
	select {
	case err = <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("Solve never returned after cancellation")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("error = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want to also match context.Canceled", err)
	}

	// The solve goroutine and any engine workers must wind down; poll
	// because goroutine exit is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancellationExactSolver cancels mid-branch-and-bound: the exact
// solver polls the context inside the search tree, so even a single
// long phase solve unblocks.
func TestCancellationExactSolver(t *testing.T) {
	// A dense random graph keeps the exact solver branching long enough
	// to observe the cancellation.
	rng := rand.New(rand.NewSource(7))
	g := graph.GnP(140, 0.5, rng)
	ctx, cancel := context.WithCancel(context.Background())
	sv := New(WithOracle("exact"))
	errc := make(chan error, 1)
	go func() {
		_, err := sv.MaxIS(ctx, g)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, ErrCancelled) {
			t.Errorf("error = %v, want nil (finished first) or ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exact solve ignored cancellation")
	}
}

func TestPreCancelledContext(t *testing.T) {
	h, _ := testInstance(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, call := range map[string]func(*Solver) error{
		"Solve":      func(s *Solver) error { _, err := s.Solve(ctx, h); return err },
		"MaxIS":      func(s *Solver) error { _, err := s.MaxIS(ctx, graph.Cycle(4)); return err },
		"SolveBatch": func(s *Solver) error { _, err := s.SolveBatch(ctx, []*hypergraph.Hypergraph{h}); return err },
		"SolveReader": func(s *Solver) error {
			_, _, err := s.SolveReader(ctx, strings.NewReader("hypergraph 2 1\n0 1\n"), graphio.FormatAuto)
			return err
		},
	} {
		// Once without a gate, once with: both admission paths must
		// surface ErrCancelled.
		for _, sv := range []*Solver{New(), New(WithMaxInflight(2))} {
			if err := call(sv); !errors.Is(err, ErrCancelled) {
				t.Errorf("%s (gate=%v): error = %v, want ErrCancelled", name, sv.MaxInFlight() > 0, err)
			}
		}
	}
}

func TestSolveBatch(t *testing.T) {
	var hs []*hypergraph.Hypergraph
	for i := 0; i < 6; i++ {
		h, _ := testInstance(t, 10+int64(i))
		hs = append(hs, h)
	}
	for _, workers := range []int{1, 0} {
		sv := New(WithK(2), WithWorkers(workers))
		results, err := sv.SolveBatch(context.Background(), hs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(hs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(hs))
		}
		for i, res := range results {
			if res == nil {
				t.Fatalf("workers=%d: instance %d has no result", workers, i)
			}
			if err := verify.ConflictFreeMulti(hs[i], res.Multicoloring); err != nil {
				t.Errorf("workers=%d instance %d: %v", workers, i, err)
			}
		}
	}
}

func TestSolveBatchAbortsOnError(t *testing.T) {
	good, _ := testInstance(t, 20)
	sv := New(WithK(2), WithOracle("nonesuch"))
	if _, err := sv.SolveBatch(context.Background(), []*hypergraph.Hypergraph{good}); !errors.Is(err, maxis.ErrUnknownOracle) {
		t.Errorf("batch error = %v, want ErrUnknownOracle", err)
	}
}

func TestReaderErrorsAreTyped(t *testing.T) {
	sv := New(WithK(2), WithCache(2))
	if _, _, err := sv.SolveReader(context.Background(),
		strings.NewReader("hypergraph 2 notanumber\n"), graphio.FormatAuto); !errors.Is(err, graphio.ErrFormat) {
		t.Errorf("malformed: error = %v, want ErrFormat", err)
	}
	if _, _, err := sv.MaxISReader(context.Background(),
		strings.NewReader("graph 3 2\n0 1\n0 1\n"), graphio.FormatAuto); !errors.Is(err, graphio.ErrDuplicateEdge) {
		t.Errorf("duplicate edge: error = %v, want ErrDuplicateEdge", err)
	}
	// Failed parses must not poison the cache.
	if stats := sv.CacheStats(); stats.Entries != 0 {
		t.Errorf("cache entries after failed parses = %d, want 0", stats.Entries)
	}
}

// failingReader fails every read with err.
type failingReader struct{ err error }

func (r *failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestReadInstanceErrorTyped pins the read/parse error distinction: a
// body that fails to *read* surfaces ErrReadInstance with the cause
// reachable, which cfserve maps to a client-side status. That holds with
// and without a cache, for both readers, under every format the body
// could be sniffed as, and after part of the body arrived.
func TestReadInstanceErrorTyped(t *testing.T) {
	cause := fmt.Errorf("connection torn down")
	body := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"type":"graph","n":`), &failingReader{err: cause})
	}
	for _, sv := range []*Solver{New(WithCache(2)), New()} {
		for _, f := range []graphio.Format{graphio.FormatAuto, graphio.FormatEdgeList, graphio.FormatJSON} {
			_, _, err := sv.SolveReader(context.Background(), body(), f)
			if !errors.Is(err, ErrReadInstance) || !errors.Is(err, cause) {
				t.Errorf("SolveReader(%v), cache %v: error = %v, want ErrReadInstance wrapping the cause", f, sv.cache != nil, err)
			}
			_, _, err = sv.MaxISReader(context.Background(), body(), f)
			if !errors.Is(err, ErrReadInstance) || !errors.Is(err, cause) {
				t.Errorf("MaxISReader(%v), cache %v: error = %v, want ErrReadInstance wrapping the cause", f, sv.cache != nil, err)
			}
		}
	}
}

// recordingReader serves src and keeps every buffer it filled: slices of
// the Solver's pooled scratch body.
type recordingReader struct {
	src    []byte
	filled [][]byte
}

func (r *recordingReader) Read(p []byte) (int, error) {
	if len(r.src) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.src)
	r.src = r.src[n:]
	r.filled = append(r.filled, p[:n])
	return n, nil
}

// scribbleRecycledBodies overwrites what the next requests would: the
// buffers r filled, and the bodies of the scratches the pool hands out
// next (the one the last request released among them).
func scribbleRecycledBodies(r *recordingReader) {
	for _, b := range r.filled {
		for i := range b {
			b[i] = '#'
		}
	}
	var held []*serveScratch
	for range 8 {
		sc := grabServeScratch()
		b := sc.body[:cap(sc.body)]
		for i := range b {
			b[i] = '#'
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		releaseServeScratch(sc)
	}
}

// TestParsedInstanceOutlivesPooledBody pins that the parse copies out
// what it keeps: a cache miss parses in place from pooled scratch, which
// the next request overwrites, so the cached instance must not alias it.
func TestParsedInstanceOutlivesPooledBody(t *testing.T) {
	ctx := context.Background()
	sv := New(WithK(2), WithCache(8))
	g := graph.GnP(40, 0.2, rand.New(rand.NewSource(5)))
	for _, f := range []graphio.Format{graphio.FormatEdgeList, graphio.FormatDIMACS, graphio.FormatJSON} {
		var buf bytes.Buffer
		if err := graphio.WriteGraph(&buf, g, f); err != nil {
			t.Fatal(err)
		}
		r := &recordingReader{src: buf.Bytes()}
		if _, inst, err := sv.MaxISReader(ctx, r, f); err != nil || inst.CacheHit {
			t.Fatalf("%v: miss = %+v, %v", f, inst, err)
		}
		scribbleRecycledBodies(r)
		_, inst, err := sv.MaxISReader(ctx, bytes.NewReader(buf.Bytes()), f)
		if err != nil || !inst.CacheHit {
			t.Fatalf("%v: hit = %+v, %v", f, inst, err)
		}
		want, err := graphio.ParseGraph(buf.Bytes(), f)
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(inst.Graph(), want) {
			t.Errorf("%v: cached graph changed when its pooled body was overwritten", f)
		}
	}
	h, _ := testInstance(t, 5)
	for _, f := range []graphio.Format{graphio.FormatEdgeList, graphio.FormatJSON} {
		var buf bytes.Buffer
		if err := graphio.WriteHypergraph(&buf, h, f); err != nil {
			t.Fatal(err)
		}
		r := &recordingReader{src: buf.Bytes()}
		if _, inst, err := sv.SolveReader(ctx, r, f); err != nil || inst.CacheHit {
			t.Fatalf("%v: miss = %+v, %v", f, inst, err)
		}
		scribbleRecycledBodies(r)
		_, inst, err := sv.SolveReader(ctx, bytes.NewReader(buf.Bytes()), f)
		if err != nil || !inst.CacheHit {
			t.Fatalf("%v: hit = %+v, %v", f, inst, err)
		}
		want, err := graphio.ParseHypergraph(buf.Bytes(), f)
		if err != nil {
			t.Fatal(err)
		}
		got := inst.Hypergraph()
		if got.N() != want.N() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Errorf("%v: cached hypergraph changed when its pooled body was overwritten", f)
		}
	}
}

// TestCachelessReaderStreams pins the no-cache path: the instance is
// read and parsed without a hash key and still solves.
func TestCachelessReaderStreams(t *testing.T) {
	_, body := testInstance(t, 40)
	sv := New(WithK(2)) // no WithCache: no hashing
	res, inst, err := sv.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Key != "" || inst.CacheHit {
		t.Errorf("cacheless instance = %+v, want empty key and no hit", inst)
	}
	if res.TotalColors == 0 || inst.Hypergraph() == nil {
		t.Errorf("cacheless solve degenerate: colours %d", res.TotalColors)
	}
}

func TestMaxISReaderFormats(t *testing.T) {
	g := graph.Grid(4, 5)
	sv := New(WithCache(8))
	for _, f := range []graphio.Format{graphio.FormatEdgeList, graphio.FormatDIMACS, graphio.FormatJSON} {
		var buf bytes.Buffer
		if err := graphio.WriteGraph(&buf, g, f); err != nil {
			t.Fatal(err)
		}
		res, inst, err := sv.MaxISReader(context.Background(), bytes.NewReader(buf.Bytes()), graphio.FormatAuto)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if inst.Kind != "graph" || inst.N != 20 || inst.Graph() == nil {
			t.Errorf("%v: instance %+v", f, inst)
		}
		if len(res.Set) != 10 { // the 4x5 grid's maximum, found by greedy
			t.Errorf("%v: |IS| = %d, want 10", f, len(res.Set))
		}
	}
}

func TestCacheEviction(t *testing.T) {
	c := newInstanceCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.getBytes([]byte("a")); !ok {
		t.Fatal("a should be cached")
	}
	c.put("c", 3) // evicts b, the least recently used
	if _, ok := c.getBytes([]byte("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.getBytes([]byte("a")); !ok {
		t.Error("a should have survived (recently used)")
	}
	st := c.snapshot()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("snapshot = %+v", st)
	}
}

func TestCacheKeySeparatesKindAndFormat(t *testing.T) {
	body := []byte("graph 2 1\n0 1\n")
	keys := map[string]bool{
		cacheKey("graph", "edgelist", body):                        true,
		cacheKey("hypergraph", "edgelist", body):                   true,
		cacheKey("graph", "auto", body):                            true,
		cacheKey("graph", "edgelist", []byte("graph 2 1\n0 1\n ")): true,
	}
	if len(keys) != 4 {
		t.Errorf("cache keys collide: %d distinct, want 4", len(keys))
	}
}

func TestInstanceKeyMatchesReaderKey(t *testing.T) {
	_, body := testInstance(t, 7)
	sv := New(WithK(2), WithCache(4))
	_, inst, err := sv.SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := InstanceKey(KindHypergraph, graphio.FormatAuto.String(), body)
	if inst.Key != want {
		t.Fatalf("InstanceKey = %s, reader computed %s", want, inst.Key)
	}
}

// TestGateBounds checks that the admission gate really serialises
// in-flight solves at its capacity.
func TestGateBounds(t *testing.T) {
	h, _ := testInstance(t, 30)
	sv := New(WithK(2), WithOracle(blockingName()), WithMaxInflight(1), WithWorkers(2))
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	errc := make(chan error, 1)
	go func() {
		_, err := sv.Solve(ctx1, h)
		errc <- err
	}()
	select {
	case <-blockInstance.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first solve never started")
	}
	if sv.InFlight() != 1 || sv.MaxInFlight() != 1 {
		t.Fatalf("gate state = %d/%d, want 1/1", sv.InFlight(), sv.MaxInFlight())
	}
	// A second solve cannot be admitted; its own deadline must release it
	// with ErrCancelled while the first still holds the slot.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := sv.Solve(ctx2, h); !errors.Is(err, ErrCancelled) {
		t.Errorf("queued solve error = %v, want ErrCancelled", err)
	}
	cancel1()
	if err := <-errc; !errors.Is(err, ErrCancelled) {
		t.Errorf("first solve error = %v, want ErrCancelled", err)
	}
}

func TestWrapCancelledPassthrough(t *testing.T) {
	plain := fmt.Errorf("some failure")
	if got := wrapCancelled(context.Background(), plain); got != plain {
		t.Errorf("non-cancellation error rewrapped: %v", got)
	}
	if got := wrapCancelled(nil, nil); got != nil {
		t.Errorf("nil error rewrapped: %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := wrapCancelled(ctx, ctx.Err())
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("wrapped error %v misses ErrCancelled or context.Canceled", err)
	}
	if doubled := wrapCancelled(ctx, err); doubled != err {
		t.Errorf("already-wrapped error rewrapped: %v", doubled)
	}
}
