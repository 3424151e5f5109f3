package jobs

// manager.go is the orchestration core: Manager owns the registry of
// jobs, the bounded priority queue, the worker pool driving the shared
// Solver, the store, and the counters. Locking is three-tiered:
// Manager.mu guards the registry (id → job, submission order) and the
// draining flag's writes, each job's own mutex guards its mutable state
// and subscriber list, and queue.mu guards the lanes. Where they nest,
// the order is Manager.mu → job.mu → queue.mu: Submit holds all three
// across the push, and Cancel holds job.mu → queue.mu to remove a
// queued job.
//
// Every run enters the queue through enqueueLocked and leaves it for a
// terminal state through finishLocked, which between them keep the
// active count Drain waits on. Every method that takes an id finds the
// job through lookup.

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
	// Traces, when non-nil, receives the span snapshot of every job run
	// that reaches a terminal state (the same ring cfserve serves through
	// GET /v1/traces). Nil disables job tracing.
	Traces *obs.Ring
}

// Manager is the job orchestrator. Construct with New, submit with
// Submit, and stop with Close; all methods are safe for concurrent use.
type Manager struct {
	base     *solver.Solver
	store    *store // nil when persistence is off
	queue    *queue
	met      metrics
	workers  int
	queueCap int
	traces   *obs.Ring // nil when job tracing is off

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for List

	// active counts the runs between enqueueLocked and finishLocked:
	// the jobs queued or running.
	active   atomic.Int64
	baseCtx  context.Context
	stopBase context.CancelFunc
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool // set under mu, so Submit reads it with the registry
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
	m := &Manager{
		base:     base,
		queue:    newQueue(queueCap),
		workers:  workers,
		queueCap: queueCap,
		traces:   cfg.Traces,
		jobs:     make(map[string]*job),
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
			m.adopt(info, &m.met.recovered)
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
	// Checked under the registry lock Drain sets the flag under: a job
	// either registers before Drain reads the active count or is refused.
	if m.draining.Load() {
		return Info{}, false, ErrDraining
	}
	j, known := m.jobs[id]
	if !known {
		j = &job{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Done, queued and running jobs dedupe; a failed or cancelled job
	// re-runs — resubmitting after a failure IS the retry, and a
	// permanent dedupe onto a stale failure would make the id unrunnable
	// forever (recovered failures have no body at all until a
	// resubmission brings one).
	if known && j.info.State != StateFailed && j.info.State != StateCancelled {
		m.met.deduped.Add(1)
		return j.info, false, nil
	}
	info, err := m.enqueueLocked(j, id, req, f)
	if err != nil {
		return Info{}, false, err
	}
	if !known {
		m.jobs[id] = j
		m.order = append(m.order, id)
	}
	return info, true, nil
}

// enqueueLocked starts a run of j under req: a fresh queued Info, no
// result or cancellation left from an earlier run, a place in the queue,
// and a count in submitted and active. Callers hold m.mu and j.mu, so a
// worker that pops j waits on j.mu until the run is counted. When the
// queue refuses the push, j keeps its previous state.
func (m *Manager) enqueueLocked(j *job, id string, req Request, f graphio.Format) (Info, error) {
	prev := j.info
	j.info = Info{
		ID:          id,
		Label:       req.Label,
		State:       StateQueued,
		Priority:    req.Priority, // push reads the lane from it
		Params:      req.Params,
		Format:      req.Format,
		RequestID:   req.RequestID,
		SubmittedAt: time.Now(),
	}
	if err := m.queue.push(j); err != nil {
		j.info = prev
		return Info{}, err
	}
	j.req, j.format = req, f
	j.shared, j.result = nil, nil
	j.cancelRequested, j.cancel = false, nil
	m.met.submitted.Add(1)
	m.active.Add(1)
	return j.info, nil
}

// finishLocked moves j to a terminal state: it records the outcome,
// drops the request body, counts the outcome, ends the run's share of
// the active count and publishes. Terminal jobs stop pinning their body
// (a resubmission brings a fresh one); without that, a long-lived
// manager would hold every body, up to the server's body cap each,
// forever. Callers hold j.mu.
func (m *Manager) finishLocked(j *job, state State, errMsg string, at time.Time) {
	j.info.State = state
	j.info.Error = errMsg
	j.info.FinishedAt = at
	j.req.Body = nil
	switch state {
	case StateDone:
		m.met.completed.Add(1)
	case StateCancelled:
		m.met.cancelled.Add(1)
	default:
		m.met.failed.Add(1)
	}
	m.active.Add(-1)
	m.publishLocked(j)
}

// Get returns the job's current snapshot. Like every method that takes
// an id, it adopts a terminal job the store holds under an id the
// registry does not know (see lookup).
func (m *Manager) Get(id string) (Info, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Info{}, err
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
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
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
	j, err := m.lookup(id)
	if err != nil {
		return Info{}, err
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
		m.finishLocked(j, StateCancelled, "cancelled before running", time.Now())
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
	j, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
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

// Drain stops admitting new jobs and waits until every accepted job has
// reached a terminal state: queued jobs still run (the worker pool keeps
// popping), running jobs finish, and only then does Drain return. ctx
// bounds the wait — on expiry the manager stays draining (admissions
// stay refused) and the remaining jobs keep running until Close cancels
// them. Drain is idempotent and safe to call concurrently with Close.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining.Store(true)
	m.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for m.active.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
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
		if _, ok := m.adopt(info, &m.met.adopted); ok {
			adopted++
		}
	}
	return adopted, nil
}

// adopt registers a job read from the store and counts it in counter.
// An id already registered keeps its job: adopt returns that job and
// false.
func (m *Manager) adopt(info Info, counter *atomic.Uint64) (*job, bool) {
	info.Recovered = true
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[info.ID]; ok {
		return j, false
	}
	j := &job{info: info, format: graphio.FormatAuto}
	m.jobs[info.ID] = j
	m.order = append(m.order, info.ID)
	counter.Add(1)
	return j, true
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
			m.finishLocked(j, StateCancelled, "manager closed", time.Now())
		}
		j.mu.Unlock()
	}
}

// lookup returns the job registered under id. An id the registry does
// not know is read from the store: with a shared store directory another
// node may have run and persisted the job, and a terminal job found
// there is adopted (see Rescan).
func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return j, nil
	}
	// The id may come from a URL path; only a job id may name a file.
	if m.store != nil && validJobID(id) {
		if info, ok := m.store.load(id); ok && info.State.Terminal() {
			j, _ := m.adopt(info, &m.met.adopted)
			return j, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
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
	// The counters move before publishLocked announces the running
	// state, so a watcher woken by that event never reads a stale gauge.
	m.met.waitNS.Add(int64(started.Sub(j.info.SubmittedAt)))
	m.met.started.Add(1)
	m.met.running.Add(1)
	m.publishLocked(j)
	j.mu.Unlock()
	defer cancel()

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
		if err == nil || attempt >= j.req.MaxRetries || ctx.Err() != nil || !errors.Is(err, ErrTransient) {
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
	cancelRequested := j.cancelRequested
	state, errMsg := StateDone, ""
	switch {
	case err == nil:
		j.info.TotalColors = res.TotalColors
		j.info.PhaseCount = len(res.Phases)
		if m.store == nil {
			if inst.AnswerHit {
				j.shared = res
			} else {
				j.result = packResult(res)
			}
		}
	case cancelRequested:
		state, errMsg = StateCancelled, err.Error()
	default:
		state, errMsg = StateFailed, err.Error()
	}
	m.met.runNS.Add(int64(finished.Sub(started)))
	// The gauge drops before finishLocked announces the terminal state,
	// so a watcher woken by that event never reads a stale running count.
	m.met.running.Add(-1)
	m.met.finished.Add(1)
	m.finishLocked(j, state, errMsg, finished)
	info := j.info
	j.mu.Unlock()

	// Shutdown interruptions stay unpersisted (see Close); every other
	// terminal state is durable.
	if m.closed.Load() && err != nil && !cancelRequested && errors.Is(err, solver.ErrCancelled) {
		return
	}
	m.persist(info)
}
