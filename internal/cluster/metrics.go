package cluster

// metrics.go is the gateway's metrics surface: one obs.Registry renders
// GET /metrics in the Prometheus text format, the one place the gateway
// publishes its numbers. Per-backend series — proxy-attempt latency,
// retried attempts, job-lookup failovers, proxied totals, health,
// consecutive failures, ejections and in-flight counts — are labeled by
// backend URL and either hit typed handles on the proxy path or read
// through func-backed series at scrape time.

import (
	"pslocal/internal/obs"
)

// gatewayMetrics owns the registry and the gateway-wide counters; each
// backend record holds its own proxy-path handles.
type gatewayMetrics struct {
	reg *obs.Registry

	requests *obs.Counter // all requests, any endpoint
	rerouted *obs.Counter // attempts routed past the first candidate
	failures *obs.Counter // requests answered 4xx/5xx or given up on
}

// newGatewayMetrics builds the registry over the gateway's fixed backend
// set, filling each record's handles; the func-backed series read the
// records at scrape time.
func newGatewayMetrics(g *Gateway) *gatewayMetrics {
	reg := obs.NewRegistry()
	m := &gatewayMetrics{
		reg:      reg,
		requests: reg.Counter("cfgate_requests_total", "HTTP requests received, any endpoint."),
		rerouted: reg.Counter("cfgate_rerouted_total", "Proxy attempts routed past the first candidate."),
		failures: reg.Counter("cfgate_failures_total", "Requests answered 4xx/5xx or exhausted every candidate."),
	}
	reg.GaugeFunc("cfgate_policy_info", "The routing policy in force (always 1).",
		func() float64 { return 1 }, obs.L("policy", string(g.cfg.Policy)))
	for _, b := range g.backends {
		label := obs.L("backend", b.url)
		b.proxy = reg.Histogram("cfgate_proxy_duration_seconds",
			"Upstream attempt latency by backend.", label)
		b.retries = reg.Counter("cfgate_backend_retries_total",
			"Attempts this backend failed or declined (the request moved on).", label)
		b.failovers = reg.Counter("cfgate_job_lookup_failovers_total",
			"Job lookups this backend answered 404 while the gateway tried the next backend.", label)
		b.proxied = reg.Counter("cfgate_backend_proxied_total", "Requests this backend answered.", label)
		reg.GaugeFunc("cfgate_backend_healthy", "Whether the backend is admitted (1) or ejected (0).",
			func() float64 {
				if b.admitted() {
					return 1
				}
				return 0
			}, label)
		reg.GaugeFunc("cfgate_backend_consecutive_failures", "Consecutive failed probes or proxy attempts.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(b.fails)
			}, label)
		reg.CounterFunc("cfgate_backend_ejections_total", "Healthy-to-ejected transitions.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(b.ejections)
			}, label)
		reg.GaugeFunc("cfgate_backend_inflight", "Requests currently proxied to the backend.",
			func() float64 { return float64(b.inflight.Load()) }, label)
	}
	reg.GaugeFunc("cfgate_healthy_backends", "Backends currently admitted for routing.",
		func() float64 { return float64(len(g.healthyBackends())) })
	return m
}
