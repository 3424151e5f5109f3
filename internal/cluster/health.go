package cluster

// health.go tracks per-backend availability: an active prober hits each
// backend's readiness endpoint on an interval and ejects it after
// FailAfter consecutive failures, with exponential backoff before
// re-probing an ejected backend; passive transport failures observed
// while proxying feed the same counter, so a dead backend stops taking
// traffic before the next probe tick. A draining backend answers its
// readiness probe 503 and is ejected the same way — that is the
// graceful-drain handoff.

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// ProbeConfig configures the health prober.
type ProbeConfig struct {
	// Interval between probe rounds (default 500ms).
	Interval time.Duration
	// Timeout of one probe request (default Interval).
	Timeout time.Duration
	// FailAfter is the consecutive-failure count that ejects a backend
	// (default 3). Passive failures reported by the proxy count too.
	FailAfter int
	// Path is the probed endpoint (default "/readyz").
	Path string
	// MaxBackoff caps the ejected-backend re-probe backoff (default 8s).
	MaxBackoff time.Duration
}

// withDefaults fills the zero fields.
func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.FailAfter < 1 {
		c.FailAfter = 3
	}
	if c.Path == "" {
		c.Path = "/readyz"
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * time.Second
	}
	return c
}

// backendState is the mutable health record of one backend.
type backendState struct {
	healthy bool
	// fails is the current consecutive-failure count.
	fails int
	// ejections counts healthy→ejected transitions.
	ejections uint64
	// backoff and nextProbe gate re-probing an ejected backend; healthy
	// backends probe every Interval.
	backoff   time.Duration
	nextProbe time.Time
}

// health tracks every backend's state under one lock (the state is tiny
// and the proxy touches it once per attempt).
type health struct {
	cfg    ProbeConfig
	client *http.Client

	mu     sync.Mutex
	states map[string]*backendState
}

// newHealth starts every backend healthy: the first probe round
// corrects optimism within one Interval, and refusing all traffic until
// then would turn a gateway restart into an outage.
func newHealth(backends []string, cfg ProbeConfig, transport http.RoundTripper) *health {
	cfg = cfg.withDefaults()
	h := &health{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout, Transport: transport},
		states: make(map[string]*backendState, len(backends)),
	}
	for _, b := range backends {
		h.states[b] = &backendState{healthy: true}
	}
	return h
}

// healthy reports whether the backend is currently admitted.
func (h *health) healthy(backend string) bool { return h.state(backend).healthy }

// reportFailure records one failed interaction (probe or passive proxy
// transport error) and ejects at the threshold.
func (h *health) reportFailure(backend string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.states[backend]
	if !ok {
		return
	}
	st.fails++
	if st.healthy && st.fails >= h.cfg.FailAfter {
		st.healthy = false
		st.ejections++
		st.backoff = h.cfg.Interval
		st.nextProbe = time.Now().Add(st.backoff)
	} else if !st.healthy {
		// Every failed re-probe doubles the backoff up to the cap.
		st.backoff *= 2
		if st.backoff > h.cfg.MaxBackoff {
			st.backoff = h.cfg.MaxBackoff
		}
		st.nextProbe = time.Now().Add(st.backoff)
	}
}

// reportSuccess records one successful interaction, re-admitting an
// ejected backend.
func (h *health) reportSuccess(backend string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.states[backend]
	if !ok {
		return
	}
	st.fails = 0
	st.backoff = 0
	st.nextProbe = time.Time{}
	st.healthy = true
}

// due returns the backends whose next probe is due now.
func (h *health) due(now time.Time) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for b, st := range h.states {
		if st.healthy || !now.Before(st.nextProbe) {
			out = append(out, b)
		}
	}
	return out
}

// state returns a copy of one backend's record (the zero record for a
// backend the gateway does not know).
func (h *health) state(backend string) backendState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st, ok := h.states[backend]; ok {
		return *st
	}
	return backendState{}
}

// probe performs one readiness check: any 2xx is healthy.
func (h *health) probe(ctx context.Context, backend string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+h.cfg.Path, nil)
	if err != nil {
		h.reportFailure(backend)
		return
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.reportFailure(backend)
		return
	}
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		h.reportSuccess(backend)
	} else {
		h.reportFailure(backend)
	}
}

// run probes until ctx is done: every Interval, all due backends are
// probed concurrently (ejected backends only when their backoff
// expires).
func (h *health) run(ctx context.Context) {
	tick := time.NewTicker(h.cfg.Interval)
	defer tick.Stop()
	for {
		var wg sync.WaitGroup
		for _, b := range h.due(time.Now()) {
			wg.Add(1)
			go func(b string) {
				defer wg.Done()
				h.probe(ctx, b)
			}(b)
		}
		wg.Wait()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
