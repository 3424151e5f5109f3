package main

// load.go is the load generator: one HTTP client holding at most nproc
// connections, an open loop that sends on a Poisson schedule and times
// each request from its scheduled instant, and a closed loop of nproc
// clients that each wait for their previous request (or job) to finish.
//
// Two habits of internal/loadgen are avoided on purpose: Client.Run
// starts a request's clock only after its in-flight semaphore and body
// build, so queueing never shows; and Plan rotates the wire format when
// it reuses an instance, so a "reused" instance often has a new cache
// key. Here the clock starts at the scheduled instant and every instance
// keeps one format.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns the one client of the load process: at most conns
// connections per host, no transparent compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        4 * conns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// outcome is what one request produced.
type outcome struct {
	req     *request
	lag     time.Duration // open loop: how late the generator sent it
	latency time.Duration // due instant to last response byte (closed: to job terminal)
	status  int
	body    []byte // until stored; kept on failed responses
	backend string // X-Pslocal-Backend, through the gateway
	err     error
	// key names the stored copy of the body; elapsedMS is the server's
	// elapsed_ms, the one field that differs between repeats of an answer.
	key       bodyKey
	elapsedMS float64
	// jobState is the terminal state a closed-loop job reached.
	jobState string
	// done is when a closed-loop request completed, from the loop's start.
	done time.Duration
}

// ok reports a transport-level success (the answer is checked later).
func (o *outcome) ok() bool {
	if o.err != nil {
		return false
	}
	if o.req.isJob() {
		return o.status == http.StatusAccepted || o.status == http.StatusOK
	}
	return o.status == http.StatusOK
}

func (r *request) isJob() bool { return strings.HasPrefix(r.path, "/v1/jobs") }

// send posts r and reads the whole response; latency runs from due.
func send(ctx context.Context, c *http.Client, base string, r *request, due time.Time) outcome {
	o := outcome{req: r}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.inst.body))
	if err != nil {
		o.err = err
		return o
	}
	resp, err := c.Do(req)
	if err != nil {
		o.err = err
		o.latency = time.Since(due)
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(due)
	o.status = resp.StatusCode
	o.backend = resp.Header.Get("X-Pslocal-Backend")
	return o
}

// bodyStore keeps one copy of each distinct response body per instance.
// A hot run repeats the same few answers tens of thousands of times;
// storing and verifying each distinct one once keeps the load process
// small, and still checks every answer, since an answer byte-identical
// (elapsed_ms aside) to a verified one is verified.
type bodyStore struct {
	mu     sync.Mutex
	bodies map[bodyKey][]byte
}

type bodyKey struct {
	inst *instance
	fp   [sha256.Size]byte
}

func newBodyStore() *bodyStore { return &bodyStore{bodies: map[bodyKey][]byte{}} }

var elapsedField = []byte(`"elapsed_ms":`)

// add moves a successful outcome's body into the store.
func (s *bodyStore) add(o *outcome) {
	if !o.ok() {
		return
	}
	head, tail := o.body, []byte(nil)
	if i := bytes.Index(o.body, elapsedField); i >= 0 {
		j := i + len(elapsedField)
		for j < len(o.body) && o.body[j] == ' ' {
			j++
		}
		k := j
		for k < len(o.body) && strings.IndexByte("0123456789.-+eE", o.body[k]) >= 0 {
			k++
		}
		if v, err := strconv.ParseFloat(string(o.body[j:k]), 64); err == nil {
			head, tail, o.elapsedMS = o.body[:j], o.body[k:], v
		}
	}
	h := sha256.New()
	h.Write(head)
	h.Write([]byte{0})
	h.Write(tail)
	o.key = bodyKey{inst: o.req.inst}
	h.Sum(o.key.fp[:0])
	s.mu.Lock()
	if _, ok := s.bodies[o.key]; !ok {
		s.bodies[o.key] = o.body
	}
	s.mu.Unlock()
	o.body = nil
}

// openLoop sends every request at its scheduled offset from now,
// regardless of how earlier ones fare. A request waiting for one of the
// client's connections is already late, and that wait is latency.
func openLoop(ctx context.Context, c *http.Client, base string, reqs []*request, store *bodyStore) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int, r *request, due time.Time, lag time.Duration) {
			defer wg.Done()
			out[i] = send(ctx, c, base, r, due)
			out[i].lag = lag
			store.add(&out[i])
		}(i, r, due, lag)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send the next request of reqs only
// once their previous one completed; a job completes at its terminal
// state. It stops issuing at dur and returns every completion.
func closedLoop(ctx context.Context, c *http.Client, base string, reqs []*request, clients int, dur time.Duration, store *bodyStore) ([]outcome, error) {
	var next atomic.Int64
	var exhausted atomic.Bool
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					exhausted.Store(true)
					return
				}
				t0 := time.Now()
				o := send(ctx, c, base, reqs[i], t0)
				if o.ok() && reqs[i].isJob() {
					o.jobState, o.err = awaitJob(ctx, c, base, o.body)
					o.latency = time.Since(t0)
				}
				o.done = time.Since(start)
				store.add(&o)
				per[w] = append(per[w], o)
			}
		}(w)
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	if exhausted.Load() {
		return out, fmt.Errorf("closed-loop sequence of %d requests exhausted", len(reqs))
	}
	return out, ctx.Err()
}

// jobEnvelope is the part of a job response the benchmark reads.
type jobEnvelope struct {
	Job struct {
		ID          string    `json:"id"`
		State       string    `json:"state"`
		SubmittedAt time.Time `json:"submitted_at"`
		StartedAt   time.Time `json:"started_at"`
		FinishedAt  time.Time `json:"finished_at"`
	} `json:"job"`
	Result json.RawMessage `json:"result"`
}

// awaitJob follows the submitted job's event stream until the server
// closes it after the terminal transition, and returns the last state.
func awaitJob(ctx context.Context, c *http.Client, base string, submitBody []byte) (string, error) {
	var env jobEnvelope
	if err := json.Unmarshal(submitBody, &env); err != nil {
		return "", fmt.Errorf("job submit response: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+env.Job.ID+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("job events: status %d", resp.StatusCode)
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			state = s
		}
	}
	return state, sc.Err()
}

// waitJobs polls GET /v1/jobs?label= until want jobs carry the label and
// all are terminal, and returns them.
func waitJobs(ctx context.Context, c *http.Client, base, label string, want int) ([]jobEnvelope, error) {
	deadline := time.Now().Add(90 * time.Second)
	for {
		var list struct {
			Jobs []jobEnvelope `json:"jobs"`
		}
		if err := getJSON(ctx, c, base+"/v1/jobs?label="+label, &list); err != nil {
			return nil, err
		}
		terminal := 0
		for _, j := range list.Jobs {
			switch j.Job.State {
			case "done", "failed", "cancelled":
				terminal++
			}
		}
		if len(list.Jobs) >= want && terminal == len(list.Jobs) {
			return list.Jobs, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("jobs %q: %d of %d terminal after 90s", label, terminal, want)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}
