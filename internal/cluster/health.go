package cluster

// health.go tracks per-backend availability in each backend's record:
// an active prober hits each backend's readiness endpoint on an
// interval and ejects it after FailAfter consecutive failures, with
// exponential backoff before re-probing an ejected backend; passive
// transport failures observed while proxying feed the same counter, so
// a dead backend stops taking traffic before the next probe tick. A
// draining backend answers its readiness probe 503 and is ejected the
// same way — that is the graceful-drain handoff.

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// DefaultFailAfter is the consecutive-failure count that ejects a
// backend when ProbeConfig.FailAfter is unset. cfserve's SIGTERM path
// waits for this many 503 readiness probes before closing its listener.
const DefaultFailAfter = 3

// ProbeConfig configures the health prober.
type ProbeConfig struct {
	// Interval between probe rounds (default 500ms).
	Interval time.Duration
	// Timeout of one probe request (default Interval).
	Timeout time.Duration
	// FailAfter is the consecutive-failure count that ejects a backend
	// (default DefaultFailAfter). Passive failures reported by the proxy
	// count too.
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
		c.FailAfter = DefaultFailAfter
	}
	if c.Path == "" {
		c.Path = "/readyz"
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * time.Second
	}
	return c
}

// health is the prober: it drives the health record of every backend.
type health struct {
	cfg      ProbeConfig
	client   *http.Client
	backends []*backend
}

// newHealth starts every backend healthy: the first probe round
// corrects optimism within one Interval, and refusing all traffic until
// then would turn a gateway restart into an outage.
func newHealth(backends []*backend, cfg ProbeConfig, transport http.RoundTripper) *health {
	cfg = cfg.withDefaults()
	for _, b := range backends {
		b.healthy = true
	}
	return &health{
		cfg:      cfg,
		client:   &http.Client{Timeout: cfg.Timeout, Transport: transport},
		backends: backends,
	}
}

// reportFailure records one failed interaction (probe or passive proxy
// transport error) and ejects at the threshold.
func (h *health) reportFailure(b *backend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.healthy && b.fails >= h.cfg.FailAfter {
		b.healthy = false
		b.ejections++
		b.backoff = h.cfg.Interval
		b.nextProbe = time.Now().Add(b.backoff)
	} else if !b.healthy {
		// Every failed re-probe doubles the backoff up to the cap.
		b.backoff = min(2*b.backoff, h.cfg.MaxBackoff)
		b.nextProbe = time.Now().Add(b.backoff)
	}
}

// reportSuccess records one successful interaction, re-admitting an
// ejected backend.
func (h *health) reportSuccess(b *backend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.backoff = 0
	b.nextProbe = time.Time{}
	b.healthy = true
}

// due returns the backends whose next probe is due now.
func (h *health) due(now time.Time) []*backend {
	var out []*backend
	for _, b := range h.backends {
		b.mu.Lock()
		if b.healthy || !now.Before(b.nextProbe) {
			out = append(out, b)
		}
		b.mu.Unlock()
	}
	return out
}

// probe performs one readiness check: any 2xx is healthy.
func (h *health) probe(ctx context.Context, b *backend) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+h.cfg.Path, nil)
	if err != nil {
		h.reportFailure(b)
		return
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.reportFailure(b)
		return
	}
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		h.reportSuccess(b)
	} else {
		h.reportFailure(b)
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
			go func() {
				defer wg.Done()
				h.probe(ctx, b)
			}()
		}
		wg.Wait()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
