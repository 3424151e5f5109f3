package cluster

// balancer.go turns "who could serve this" into "who serves this": the
// per-backend record, the three routing policies, and the attempt plan
// a proxied request walks. Affinity is the default — the ring owner
// first so repeated instances hit its parsed-instance cache — with
// saturation spilling onto the least-loaded healthy backend rather than
// queueing behind a hot key.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pslocal/internal/obs"
)

// Policy selects how the gateway picks a backend.
type Policy string

const (
	// PolicyAffinity routes by the content-hash ring (cache affinity),
	// spilling to the least-loaded healthy backend when the owner is
	// saturated or down.
	PolicyAffinity Policy = "affinity"
	// PolicyRoundRobin rotates over healthy backends, ignoring the ring —
	// the control arm cache-hit comparisons run against.
	PolicyRoundRobin Policy = "round-robin"
	// PolicyLeastLoaded always picks the healthy backend with the fewest
	// gateway-tracked in-flight requests.
	PolicyLeastLoaded Policy = "least-loaded"
)

// ParsePolicy maps the -policy flag spelling onto a Policy; the empty
// string selects PolicyAffinity.
func ParsePolicy(s string) (Policy, bool) {
	switch Policy(s) {
	case "", PolicyAffinity:
		return PolicyAffinity, true
	case PolicyRoundRobin:
		return PolicyRoundRobin, true
	case PolicyLeastLoaded:
		return PolicyLeastLoaded, true
	}
	return "", false
}

// backend is one configured cfserve node: the one record routing, the
// prober, the proxy and GET /metrics all read. New builds the set once,
// in the ring's sorted order, and it never changes.
type backend struct {
	url string
	// inflight counts the gateway's requests to this backend from send
	// until their response body is closed. It is the gateway's own view
	// (not the backend's total load), which is exactly what least-loaded
	// spill needs: relative pressure from here.
	inflight atomic.Int64

	// mu guards the health record the prober and the proxy report into.
	mu      sync.Mutex
	healthy bool
	// fails is the current consecutive-failure count.
	fails int
	// ejections counts healthy→ejected transitions.
	ejections uint64
	// backoff and nextProbe gate re-probing an ejected backend; healthy
	// backends probe every Interval.
	backoff   time.Duration
	nextProbe time.Time

	// The proxy-path metric handles, labeled by url.
	proxy   *obs.Histogram // every upstream attempt's latency
	retries *obs.Counter   // forwarded attempts it failed or declined (the request moved on)
	// failovers counts job lookups it answered 404 while later
	// candidates remained: the id scan moving on, not a failure. Its
	// family name must not start with cfgate_backend_retries_total,
	// which the serving benchmark sums by prefix.
	failovers *obs.Counter
	proxied   *obs.Counter // forwarded requests it answered
}

// admitted reports whether the backend is currently routed to.
func (b *backend) admitted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// healthyBackends returns the admitted backends, sorted.
func (g *Gateway) healthyBackends() []*backend {
	var out []*backend
	for _, b := range g.backends {
		if b.admitted() {
			out = append(out, b)
		}
	}
	return out
}

// plan returns the ordered backends one request should attempt: the
// preferred backend per policy first, then fallbacks. Unhealthy
// backends are planned last rather than dropped — with every backend
// ejected, trying one beats refusing outright (the probe may simply not
// have caught a recovery yet).
func (g *Gateway) plan(key string, policy Policy) []*backend {
	n := len(g.backends)
	ordered := make([]*backend, 0, n)
	switch policy {
	case PolicyRoundRobin:
		start := int(g.rr.Add(1)-1) % n
		for i := range n {
			ordered = append(ordered, g.backends[(start+i)%n])
		}
	case PolicyLeastLoaded:
		ordered = append(ordered, g.backends...)
		sort.SliceStable(ordered, func(i, j int) bool {
			return ordered[i].inflight.Load() < ordered[j].inflight.Load()
		})
	default: // PolicyAffinity
		for _, i := range g.ring.order(key) {
			ordered = append(ordered, g.backends[i])
		}
		// A saturated owner spills: the least-loaded other backend leads
		// and the owner shifts to second (still the cache-affine retry if
		// the spill target fails).
		saturation := int64(g.cfg.BackendInflight)
		if saturation > 0 && n > 1 &&
			(!ordered[0].admitted() || ordered[0].inflight.Load() >= saturation) {
			min := 1
			for i := 2; i < n; i++ {
				if ordered[i].inflight.Load() < ordered[min].inflight.Load() {
					min = i
				}
			}
			target := ordered[min]
			copy(ordered[1:min+1], ordered[0:min])
			ordered[0] = target
		}
	}
	// Stable partition: healthy candidates keep their order up front,
	// ejected ones trail as a last resort.
	healthy := make([]*backend, 0, n)
	var ejected []*backend
	for _, b := range ordered {
		if b.admitted() {
			healthy = append(healthy, b)
		} else {
			ejected = append(ejected, b)
		}
	}
	return append(healthy, ejected...)
}
