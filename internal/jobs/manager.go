package jobs

// manager.go is the orchestration core: Manager owns the registry of
// jobs, the bounded priority queue, the worker pool driving the shared
// Solver, the store, and the counters. Locking is three-tiered and never
// nested the wrong way: Manager.mu guards the registry (id → job,
// submission order), queue.mu guards the lanes, and each job's own mutex
// guards its mutable state and subscriber list. The only place two of
// them overlap is Submit (Manager.mu → queue.mu), fixing the order.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pslocal/internal/cfcolor"
	"pslocal/internal/core"
	"pslocal/internal/engine"
	"pslocal/internal/graphio"
	"pslocal/internal/obs"
	"pslocal/internal/solver"
)

// job is the internal mutable record behind an Info snapshot.
type job struct {
	mu   sync.Mutex
	info Info
	req  Request
	// format is the parsed directive (Info.Format is its spelling).
	format graphio.Format
	// cancelRequested distinguishes an explicit Cancel from a deadline or
	// shutdown, so only user cancellations end in StateCancelled.
	cancelRequested bool
	// cancel aborts the running solve; set by the worker at pickup.
	cancel context.CancelFunc
	// shared and result hold a done job's result when the manager keeps
	// no store (with one, the result lives in the store only). shared is
	// a result the Solver answered from its answer store: every caller of
	// that answer holds the same pointer, so keeping it costs the job
	// nothing. result packs any other result into a private copy.
	shared *core.Result
	result *packedResult
	// subs are the live Watch channels; closed at the terminal event.
	subs []chan Event
}

// packedResult is a freshly computed core.Result as a memory-only manager
// keeps it. A core.Multicoloring holds one small slice per vertex; here
// the colours sit back to back, vertex v's in colors[offsets[v]:
// offsets[v+1]]. At n 300–400 that cuts the heap a finished job pins
// from about 12 to 4 KiB.
type packedResult struct {
	res     core.Result // its Multicoloring is nil
	offsets []int32
	colors  []int32
}

func packResult(res *core.Result) *packedResult {
	p := &packedResult{
		res:     *res,
		offsets: make([]int32, len(res.Multicoloring)+1),
		colors:  slices.Concat(res.Multicoloring...),
	}
	p.res.Multicoloring = nil
	for v, cs := range res.Multicoloring {
		p.offsets[v+1] = p.offsets[v] + int32(len(cs))
	}
	return p
}

// unpack rebuilds the result. An uncoloured vertex gets a nil list
// again, so the result document still renders it as null.
func (p *packedResult) unpack() *core.Result {
	res := p.res
	res.Multicoloring = make(cfcolor.Multicoloring, len(p.offsets)-1)
	for v := range res.Multicoloring {
		if lo, hi := p.offsets[v], p.offsets[v+1]; lo < hi {
			res.Multicoloring[v] = p.colors[lo:hi:hi]
		}
	}
	return &res
}

// snapshot copies the job's Info under its lock.
func (j *job) snapshot() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Config configures a Manager.
type Config struct {
	// Solver is the base solver jobs derive from per-job (Solver.With),
	// sharing its instance cache and admission gate with every other
	// user; nil constructs a default solver.New().
	Solver *solver.Solver
	// Dir is the persistent store directory. "" keeps jobs in memory
	// only — no result documents, no crash recovery.
	Dir string
	// Workers is the pool width under the CLI -workers convention:
	// 0 (and negatives) select GOMAXPROCS, any positive value is the
	// literal count.
	Workers int
	// QueueCap bounds the queue across all priority lanes (0 = 1024).
	QueueCap int
	// Retryable classifies errors worth re-running; nil retries exactly
	// the errors matching ErrTransient. Cancellations never retry.
	Retryable func(error) bool
	// Traces, when non-nil, receives the span snapshot of every job run
	// that reaches a terminal state (the same ring cfserve serves through
	// GET /v1/traces). Nil disables job tracing.
	Traces *obs.Ring
}

// Manager is the job orchestrator. Construct with New, submit with
// Submit, and stop with Close; all methods are safe for concurrent use.
type Manager struct {
	base      *solver.Solver
	store     *store // nil when persistence is off
	queue     *queue
	met       metrics
	retryable func(error) bool
	workers   int
	queueCap  int
	traces    *obs.Ring // nil when job tracing is off

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for List

	baseCtx  context.Context
	stopBase context.CancelFunc
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool
}

// New builds the manager: it creates the store directory, rescans it for
// jobs that reached a terminal state before a previous shutdown, and
// starts the worker pool.
func New(cfg Config) (*Manager, error) {
	base := cfg.Solver
	if base == nil {
		base = solver.New()
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = engine.Parallel().WorkerCount()
	}
	queueCap := cfg.QueueCap
	if queueCap < 1 {
		queueCap = 1024
	}
	retryable := cfg.Retryable
	if retryable == nil {
		retryable = func(err error) bool { return errors.Is(err, ErrTransient) }
	}
	m := &Manager{
		base:      base,
		queue:     newQueue(queueCap),
		retryable: retryable,
		workers:   workers,
		queueCap:  queueCap,
		traces:    cfg.Traces,
		jobs:      make(map[string]*job),
	}
	m.baseCtx, m.stopBase = context.WithCancel(context.Background())
	if cfg.Dir != "" {
		st, err := newStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		m.store = st
		infos, err := st.recover()
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			if !info.State.Terminal() {
				// Only terminal jobs persist, but a hand-edited document
				// must not resurrect as runnable: there is no body to run.
				info.State = StateFailed
				info.Error = "jobs: non-terminal state recovered without a body"
			}
			info.Recovered = true
			j := &job{info: info, format: graphio.FormatAuto}
			m.jobs[info.ID] = j
			m.order = append(m.order, info.ID)
			m.met.recovered.Add(1)
		}
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit enqueues req, returning the job snapshot and whether it was
// newly accepted: submitting a body+parameter combination whose content
// hash is already registered — queued, running or terminal, including
// recovered — returns the existing job with accepted=false, which is what
// makes retried submissions and post-restart resubmissions idempotent.
func (m *Manager) Submit(req Request) (Info, bool, error) {
	if m.closed.Load() {
		return Info{}, false, ErrClosed
	}
	if m.draining.Load() {
		return Info{}, false, ErrDraining
	}
	if len(req.Body) == 0 {
		return Info{}, false, fmt.Errorf("%w: empty job body", graphio.ErrFormat)
	}
	f, err := graphio.ParseFormat(req.Format)
	if err != nil {
		return Info{}, false, err
	}
	req.Format = f.String() // canonicalize before hashing
	if req.Priority < 0 || req.Priority >= numPriorities {
		return Info{}, false, fmt.Errorf("jobs: priority %d out of range", req.Priority)
	}
	if req.MaxRetries < 0 {
		req.MaxRetries = 0
	}
	if req.Deadline < 0 {
		req.Deadline = 0
	}
	id := req.id()

	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.jobs[id]; ok {
		// Done, queued and running jobs dedupe; a failed or cancelled job
		// re-runs — resubmitting after a failure IS the retry, and a
		// permanent dedupe onto a stale failure would make the id
		// unrunnable forever (recovered failures have no body at all
		// until a resubmission brings one).
		if info, requeued, err := m.resubmit(existing, req, f); requeued || err != nil {
			return info, requeued, err
		}
		m.met.deduped.Add(1)
		return existing.snapshot(), false, nil
	}
	j := &job{
		req:    req,
		format: f,
		info: Info{
			ID:          id,
			Label:       req.Label,
			State:       StateQueued,
			Priority:    req.Priority,
			Params:      req.Params,
			Format:      req.Format,
			RequestID:   req.RequestID,
			SubmittedAt: time.Now(),
		},
	}
	// Snapshot before the push: the moment the job is queued a worker may
	// pop it and start mutating its info.
	info := j.info
	if err := m.queue.push(j); err != nil {
		return Info{}, false, err
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.met.submitted.Add(1)
	return info, true, nil
}

// resubmit re-enqueues a failed or cancelled job under a fresh request
// (same content hash by construction). Callers hold m.mu; requeued is
// false when the job's state dedupes instead.
func (m *Manager) resubmit(j *job, req Request, f graphio.Format) (Info, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.State != StateFailed && j.info.State != StateCancelled {
		return Info{}, false, nil
	}
	prev := j.info
	j.req = req
	j.format = f
	j.shared, j.result = nil, nil
	j.cancelRequested = false
	j.cancel = nil
	j.info = Info{
		ID:          prev.ID,
		Label:       req.Label,
		State:       StateQueued,
		Priority:    req.Priority,
		Params:      req.Params,
		Format:      req.Format,
		RequestID:   req.RequestID,
		SubmittedAt: time.Now(),
	}
	info := j.info
	if err := m.queue.push(j); err != nil {
		j.info = prev // the bound rejected the re-run; keep the old outcome
		return Info{}, false, err
	}
	m.met.submitted.Add(1)
	m.publishLocked(j)
	return info, true, nil
}

// Get returns the job's current snapshot. An id the registry does not
// know is looked up in the store before 404ing: with a shared store
// directory another node may have run and persisted the job, and a hit
// adopts it here (see Rescan).
func (m *Manager) Get(id string) (Info, error) {
	j, ok := m.lookup(id)
	if !ok {
		if j, ok = m.adoptFromStore(id); !ok {
			return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
	}
	return j.snapshot(), nil
}

// List returns snapshots in submission order, filtered by f.
func (m *Manager) List(f Filter) []Info {
	m.mu.Lock()
	ids := make([]string, len(m.order))
	copy(ids, m.order)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()

	infos := make([]Info, 0, len(jobs))
	for _, j := range jobs {
		info := j.snapshot()
		if f.State != "" && info.State != f.State {
			continue
		}
		if f.Label != "" && info.Label != f.Label {
			continue
		}
		infos = append(infos, info)
		if f.Limit > 0 && len(infos) == f.Limit {
			break
		}
	}
	return infos
}

// Result returns a done job's reduction result, reading it back from the
// store for jobs recovered after a restart. A memory-only manager may
// return the result the Solver shares with every caller of the same
// answer, so the returned value is read-only.
func (m *Manager) Result(id string) (*core.Result, error) {
	j, ok := m.lookup(id)
	if !ok {
		if j, ok = m.adoptFromStore(id); !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.State != StateDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNoResult, id, j.info.State)
	}
	if j.shared != nil {
		return j.shared, nil
	}
	if j.result != nil {
		return j.result.unpack(), nil
	}
	if m.store == nil {
		return nil, fmt.Errorf("%w: job %s has no in-memory result and no store", ErrNoResult, id)
	}
	// Deliberately not memoized: re-reading keeps the registry's memory
	// bounded, and result fetches are rare next to solves.
	res, err := m.store.readResult(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoResult, err)
	}
	return res, nil
}

// ResultPath returns the store path of the job's result document ("" when
// persistence is off). The file exists once the job is done.
func (m *Manager) ResultPath(id string) string {
	if m.store == nil {
		return ""
	}
	return m.store.resultPath(id)
}

// Cancel requests cooperative cancellation: a queued job transitions to
// cancelled immediately; a running job has its context cancelled and
// transitions once the solve unwinds; a terminal job is left as is. The
// returned snapshot reflects the state after the request.
func (m *Manager) Cancel(id string) (Info, error) {
	j, ok := m.lookup(id)
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	switch j.info.State {
	case StateQueued:
		// Eager removal under the job lock: a worker that popped the job
		// concurrently blocks on j.mu in run() and then skips it on the
		// state check, and a racing resubmit cannot interleave between
		// the removal and the transition.
		m.queue.remove(j)
		j.cancelRequested = true
		j.info.State = StateCancelled
		j.info.Error = "cancelled before running"
		j.info.FinishedAt = time.Now()
		j.req.Body = nil
		m.met.cancelled.Add(1)
		m.publishLocked(j)
		info := j.info
		j.mu.Unlock()
		m.persist(info)
		return info, nil
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		info := j.info
		j.mu.Unlock()
		return info, nil
	default:
		info := j.info
		j.mu.Unlock()
		return info, nil
	}
}

// Watch subscribes to the job's lifecycle. The first event reports the
// state at subscription time; the channel closes after the terminal
// event. The returned stop function detaches the subscription early.
func (m *Manager) Watch(id string) (<-chan Event, func(), error) {
	j, ok := m.lookup(id)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	ch := make(chan Event, 8)
	j.mu.Lock()
	ch <- Event{ID: j.info.ID, State: j.info.State, Error: j.info.Error, At: time.Now()}
	if j.info.State.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}, nil
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	stop := func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
	return ch, stop, nil
}

// Await blocks until the job reaches a terminal state (returning its
// final snapshot) or ctx is done. A context that is already done wins
// even over a finished job, as it does for semaphore.Acquire: a select
// over two ready channels would pick either.
func (m *Manager) Await(ctx context.Context, id string) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	ch, stop, err := m.Watch(id)
	if err != nil {
		return Info{}, err
	}
	defer stop()
	for {
		select {
		case ev, ok := <-ch:
			// Channel closure is the authoritative terminal signal: even
			// if an event were dropped on a full buffer, the close after
			// the terminal transition wakes this loop.
			if !ok || ev.State.Terminal() {
				return m.Get(id)
			}
		case <-ctx.Done():
			return Info{}, ctx.Err()
		}
	}
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	return m.met.snapshot(m.queue.depth(), m.queueCap, m.workers, m.draining.Load())
}

// Draining reports whether Drain has been requested (true until Close —
// a drained manager does not resume admissions).
func (m *Manager) Draining() bool { return m.draining.Load() }

// Drain stops admitting new jobs and waits until every registered job
// has reached a terminal state: queued jobs still run (the worker pool
// keeps popping), running jobs finish, and only then does Drain return.
// ctx bounds the wait — on expiry the manager stays draining (admissions
// stay refused) and the remaining jobs keep running until Close cancels
// them. Drain is idempotent and safe to call concurrently with Close.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if !m.anyActive() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// anyActive reports whether any registered job is still queued or
// running.
func (m *Manager) anyActive() bool {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		if !j.snapshot().State.Terminal() {
			return true
		}
	}
	return false
}

// Rescan re-reads the store directory and adopts terminal jobs another
// manager (or a previous process) persisted there: the jobs store is a
// shared substrate, so a node pointed at a directory a drained peer
// wrote picks up its finished work without re-running it. Jobs whose
// content-hash id is already registered are skipped (the sha256 identity
// is the dedupe key); the adopted count is returned. Without a store,
// Rescan is a no-op.
func (m *Manager) Rescan() (int, error) {
	if m.store == nil {
		return 0, nil
	}
	infos, err := m.store.recover()
	if err != nil {
		return 0, err
	}
	adopted := 0
	for _, info := range infos {
		if !info.State.Terminal() {
			continue
		}
		if m.adopt(info) {
			adopted++
		}
	}
	return adopted, nil
}

// adopt registers a terminal Info read from the store, reporting whether
// it was new (false = the id was already registered and the existing job
// wins).
func (m *Manager) adopt(info Info) bool {
	info.Recovered = true
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[info.ID]; ok {
		return false
	}
	m.jobs[info.ID] = &job{info: info, format: graphio.FormatAuto}
	m.order = append(m.order, info.ID)
	m.met.adopted.Add(1)
	return true
}

// adoptFromStore is the targeted (single-id) version of Rescan, used by
// Get and Result on a registry miss: another node sharing the store may
// have finished this job. Returns the adopted or already-registered job.
func (m *Manager) adoptFromStore(id string) (*job, bool) {
	if m.store == nil || !validJobID(id) {
		return nil, false
	}
	info, ok := m.store.loadTerminal(id)
	if !ok {
		return nil, false
	}
	m.adopt(info) // a racing adopt keeps the existing registration
	return m.lookup(id)
}

// Close stops the pool: no new submissions, queued jobs transition to
// cancelled, running jobs are cancelled cooperatively and awaited. Jobs
// interrupted by Close are not persisted as failures — after a restart
// over the same store they resubmit and run fresh.
func (m *Manager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	m.queue.close()
	m.stopBase()
	m.wg.Wait()
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.info.State == StateQueued {
			j.info.State = StateCancelled
			j.info.Error = "manager closed"
			j.info.FinishedAt = time.Now()
			j.req.Body = nil
			m.met.cancelled.Add(1)
			m.publishLocked(j)
		}
		j.mu.Unlock()
	}
}

// lookup finds a job by id.
func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// persist writes the terminal metadata document, best effort: a metadata
// write failure must not fail a job whose result is already durable.
func (m *Manager) persist(info Info) {
	if m.store != nil {
		_ = m.store.writeJob(info)
	}
}

// publishLocked delivers the job's current state to every subscriber
// (non-blocking — the close below is the authoritative terminal signal
// for a subscriber whose buffer is full) and closes them on a terminal
// state. Callers hold j.mu, which is what orders concurrent transitions.
func (m *Manager) publishLocked(j *job) {
	ev := Event{ID: j.info.ID, State: j.info.State, Error: j.info.Error, At: time.Now()}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	if j.info.State.Terminal() {
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// worker is one pool goroutine: pop, run, repeat until close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.queue.pop()
		if !ok {
			return
		}
		m.run(j)
	}
}

// run drives one job through its lifecycle: transition to running, solve
// with retry-on-transient under the job deadline, persist, transition to
// its terminal state.
func (m *Manager) run(j *job) {
	j.mu.Lock()
	if j.info.State != StateQueued { // cancelled while queued, pop raced
		j.mu.Unlock()
		return
	}
	started := time.Now()
	j.info.State = StateRunning
	j.info.StartedAt = started
	ctx := m.baseCtx
	var cancel context.CancelFunc
	if j.req.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.req.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	m.publishLocked(j)
	wait := started.Sub(j.info.SubmittedAt)
	j.mu.Unlock()
	defer cancel()
	m.met.waitNS.Add(int64(wait))
	m.met.started.Add(1)
	m.met.running.Add(1)

	sv := m.base.With(j.req.Params.options()...)
	// Job tracing is on only when the manager has a ring to publish into:
	// a nil trace makes every span below a no-op. The trace is leased and
	// goes back to the pool once its snapshot is taken.
	var tr *obs.Trace
	if m.traces != nil {
		tr = obs.LeaseTrace("job", j.req.RequestID)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	var (
		res  *core.Result
		inst *solver.Instance
		err  error
	)
	for attempt := 0; ; attempt++ {
		res, inst, err = sv.SolveReader(ctx, bytes.NewReader(j.req.Body), j.format)
		if err == nil || attempt >= j.req.MaxRetries || ctx.Err() != nil || !m.retryable(err) {
			break
		}
		m.met.retries.Add(1)
		j.mu.Lock()
		j.info.Retries++
		j.mu.Unlock()
	}
	tr.Finish()
	// Persist the result before announcing done: a watcher that sees the
	// terminal event can immediately read the document.
	if err == nil && m.store != nil {
		if perr := m.store.writeResult(j.info.ID, res); perr != nil {
			err = fmt.Errorf("jobs: persisting result: %w", perr)
		}
	}

	finished := time.Now()
	j.mu.Lock()
	if inst != nil {
		j.info.N, j.info.M = inst.N, inst.M
	}
	if tr != nil {
		j.info.Trace = tr.Snapshot()
		m.traces.Push(j.info.Trace)
		obs.ReleaseTrace(tr)
	}
	j.info.FinishedAt = finished
	cancelRequested := j.cancelRequested
	switch {
	case err == nil:
		j.info.State = StateDone
		j.info.TotalColors = res.TotalColors
		j.info.PhaseCount = len(res.Phases)
		if m.store == nil {
			if inst.AnswerHit {
				j.shared = res
			} else {
				j.result = packResult(res)
			}
		}
		m.met.completed.Add(1)
	case cancelRequested:
		j.info.State = StateCancelled
		j.info.Error = err.Error()
		m.met.cancelled.Add(1)
	default:
		j.info.State = StateFailed
		j.info.Error = err.Error()
		m.met.failed.Add(1)
	}
	m.met.runNS.Add(int64(finished.Sub(started)))
	// The gauge drops before publishLocked announces the terminal state,
	// so a watcher woken by that event never reads a stale running count.
	m.met.running.Add(-1)
	m.met.finished.Add(1)
	// Terminal jobs stop pinning their request body (a resubmission
	// brings a fresh one) — without this, a long-lived manager would
	// hold every body (up to the server's body cap each) forever.
	j.req.Body = nil
	info := j.info
	m.publishLocked(j)
	j.mu.Unlock()

	// Shutdown interruptions stay unpersisted (see Close); every other
	// terminal state is durable.
	if m.closed.Load() && err != nil && !cancelRequested && errors.Is(err, solver.ErrCancelled) {
		return
	}
	m.persist(info)
}
