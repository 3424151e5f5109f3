// Package jobs is the asynchronous job-orchestration subsystem: a
// bounded priority FIFO queue, a worker pool driving one shared
// solver.Solver, and a full job lifecycle (queued → running → done |
// failed | cancelled) with deadlines, retry-on-transient policy and
// per-job cooperative cancellation.
//
// A job is one Theorem 1.1 reduction over a serialized hypergraph body
// (any graphio format). Jobs are identified by the SHA-256 content hash
// of their kind, format directive, solve parameters and body — so
// resubmitting an identical job is idempotent — and completed jobs
// persist their result as a graphio reduction-result document under the
// manager's store directory, named by that hash. On restart the store is
// rescanned and terminal jobs reappear with their results readable, which
// is what turns the long-running reduction service from a
// hold-the-socket-open model into submit/poll/stream.
//
// cmd/cfserve surfaces the subsystem as the /v1/jobs API (submit, get,
// list, cancel, SSE events) and cmd/cfbatch drives directory-scale sweeps
// through it; the facade re-exports the manager as pslocal.JobManager.
// DESIGN.md ("Async job subsystem") records the design.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"pslocal/internal/obs"
	"pslocal/internal/solver"
)

// Errors of the job layer. Solve failures inside a job keep their own
// taxonomy (solver.ErrCancelled, graphio.ErrFormat, ...) and surface
// through Info.Error.
var (
	// ErrQueueFull reports a Submit rejected because the bounded queue is
	// at capacity; the caller should retry later (cfserve maps it to 503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed reports an operation on a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrDraining reports a Submit on a draining manager: running and
	// queued jobs are being finished, new work is refused (cfserve maps it
	// to 503 so a gateway retries against another node).
	ErrDraining = errors.New("jobs: manager draining")
	// ErrTransient tags a failure worth retrying: a job retries exactly
	// the errors matching it under errors.Is. Oracles wrap it around
	// recoverable faults (a flaky remote backend, a lost lease).
	ErrTransient = errors.New("jobs: transient failure")
	// ErrNoResult reports a Result call on a job that has none (not done,
	// or its store entry vanished).
	ErrNoResult = errors.New("jobs: no result")
)

// State is a lifecycle state. Transitions are strictly
// queued → running → done | failed | cancelled (a queued job may also go
// straight to cancelled).
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ParseState maps a query-parameter spelling onto a State ("" matches
// nothing and is the "no filter" value of Filter.State).
func ParseState(s string) (State, error) {
	switch State(strings.ToLower(strings.TrimSpace(s))) {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return State(strings.ToLower(strings.TrimSpace(s))), nil
	default:
		return "", fmt.Errorf("jobs: unknown state %q (want queued|running|done|failed|cancelled)", s)
	}
}

// Priority selects the queue lane. Higher priorities pop first; within a
// lane jobs stay FIFO.
type Priority int

const (
	PriorityLow    Priority = 0
	PriorityNormal Priority = 1
	PriorityHigh   Priority = 2

	numPriorities = 3
)

// String returns the flag/query spelling of p.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// MarshalJSON renders p by its flag spelling, the form the /v1/jobs
// responses and the persisted job documents carry.
func (p Priority) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON accepts the flag spellings (recovery reads them back).
func (p *Priority) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParsePriority(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// ParsePriority maps a flag or query-parameter spelling onto a Priority;
// the empty string selects PriorityNormal.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	default:
		return PriorityNormal, fmt.Errorf("jobs: unknown priority %q (want low|normal|high)", s)
	}
}

// Params are the per-job solve options, mirroring the Solver's option
// set; zero values inherit the manager's base Solver configuration. They
// are part of the job's identity hash, so the same body under different
// parameters is a different job.
type Params struct {
	// K is the per-phase palette size (0 = the base Solver's).
	K int `json:"k,omitempty"`
	// Oracle is the registry strategy name, incl. portfolio:<a>,<b>,...
	// ("" = the base Solver's).
	Oracle string `json:"oracle,omitempty"`
	// Seed feeds randomized oracles (0 = the base Solver's).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the per-job worker width under the CLI convention
	// (-1 = GOMAXPROCS, 0 = the base Solver's).
	Workers int `json:"workers,omitempty"`
}

// options lowers p onto the Solver's option set, leaving unset fields to
// the base configuration.
func (p Params) options() []solver.Option {
	var opts []solver.Option
	if p.K > 0 {
		opts = append(opts, solver.WithK(p.K))
	}
	if p.Oracle != "" {
		opts = append(opts, solver.WithOracle(p.Oracle))
	}
	if p.Seed != 0 {
		opts = append(opts, solver.WithSeed(p.Seed))
	}
	if p.Workers != 0 {
		opts = append(opts, solver.WithWorkers(max(p.Workers, 0)))
	}
	return opts
}

// canonical renders p for the identity hash; every field participates so
// parameter changes change the job id.
func (p Params) canonical() string {
	return fmt.Sprintf("k=%d;oracle=%s;seed=%d;workers=%d", p.K, p.Oracle, p.Seed, p.Workers)
}

// Request describes one job to submit.
type Request struct {
	// Body is the serialized hypergraph instance, in any graphio format.
	Body []byte
	// Format is the parse directive (FormatAuto sniffs). It participates
	// in the job id, matching the instance cache's keying.
	Format string
	// Params are the solve options (zero fields inherit the base Solver).
	Params Params
	// Priority selects the queue lane (default PriorityNormal... the zero
	// value is PriorityLow, so callers coming from flags should go
	// through ParsePriority).
	Priority Priority
	// Deadline bounds the job's total run time (all retry attempts
	// included) once a worker picks it up; 0 means unbounded. An expired
	// deadline fails the job — cancelled is reserved for explicit Cancel.
	Deadline time.Duration
	// MaxRetries is how many times a transient failure re-runs the solve
	// before the job fails (0 = no retries).
	MaxRetries int
	// Label is a free-form tag (cfbatch uses the file name); it is not
	// part of the job id.
	Label string
	// RequestID is the observability correlation id of the submitting
	// request (see obs.RequestIDHeader). Like Label it is not part of the
	// job id: resubmitting the same body under a new request id must
	// dedupe onto the existing job.
	RequestID string
}

// id derives the job's content-hash identity.
func (r *Request) id() string {
	h := sha256.New()
	h.Write([]byte("reduce\x00"))
	h.Write([]byte(r.Format))
	h.Write([]byte{0})
	h.Write([]byte(r.Params.canonical()))
	h.Write([]byte{0})
	h.Write(r.Body)
	return hex.EncodeToString(h.Sum(nil))
}

// Info is a point-in-time snapshot of a job, safe to hold after the job
// moves on.
type Info struct {
	// ID is the job's content hash (64 hex digits), also the stem of its
	// store file names.
	ID string `json:"id"`
	// Label echoes Request.Label.
	Label string `json:"label,omitempty"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Priority is the queue lane.
	Priority Priority `json:"priority"`
	// Params echo the solve options.
	Params Params `json:"params"`
	// Format is the requested parse directive.
	Format string `json:"format"`
	// N and M are the parsed instance's vertex and hyperedge counts
	// (0 until the job first runs).
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
	// Error is the terminal failure message (failed/cancelled only).
	Error string `json:"error,omitempty"`
	// Retries counts re-runs consumed by the transient-retry policy.
	Retries int `json:"retries,omitempty"`
	// TotalColors and PhaseCount summarize a done job's result.
	TotalColors int `json:"total_colors,omitempty"`
	PhaseCount  int `json:"phase_count,omitempty"`
	// Recovered marks a job restored from the store by a restart rescan.
	Recovered bool `json:"recovered,omitempty"`
	// RequestID is the correlation id of the submitting request; it ties
	// the job to the gateway/backend logs and traces that carried it.
	RequestID string `json:"request_id,omitempty"`
	// Trace is the per-phase span tree of the job's solve, recorded on the
	// run that reached a terminal state (nil while queued/running).
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// WaitMS is the queue latency: submit → first run (0 while queued).
func (i Info) WaitMS() float64 {
	if i.StartedAt.IsZero() {
		return 0
	}
	return float64(i.StartedAt.Sub(i.SubmittedAt).Microseconds()) / 1000
}

// RunMS is the run latency: first run → terminal (0 before terminal).
func (i Info) RunMS() float64 {
	if i.StartedAt.IsZero() || i.FinishedAt.IsZero() {
		return 0
	}
	return float64(i.FinishedAt.Sub(i.StartedAt).Microseconds()) / 1000
}

// Event is one lifecycle transition, delivered through Manager.Watch; the
// first event of a watch reports the state at subscription time.
type Event struct {
	ID    string    `json:"id"`
	State State     `json:"state"`
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// Filter selects jobs for Manager.List.
type Filter struct {
	// State keeps only jobs in that state ("" = all).
	State State
	// Label keeps only jobs with exactly that label ("" = all).
	Label string
	// Limit bounds the result length (0 = unbounded).
	Limit int
}
