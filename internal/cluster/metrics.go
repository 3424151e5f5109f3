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

// gatewayMetrics owns the registry and the hot-path handles.
type gatewayMetrics struct {
	reg *obs.Registry

	requests *obs.Counter // all requests, any endpoint
	rerouted *obs.Counter // attempts routed past the first candidate
	failures *obs.Counter // requests answered 4xx/5xx or given up on

	// backends holds each backend's proxy-path handles, keyed by URL;
	// the set is fixed at construction, so lookups need no lock.
	backends map[string]*backendMetrics
}

// backendMetrics are one backend's proxy-path handles.
type backendMetrics struct {
	proxy   *obs.Histogram // every upstream attempt's latency
	retries *obs.Counter   // attempts it failed or declined (the request moved on)
	// failovers counts job lookups it answered 404 while later
	// candidates remained: the id scan moving on, not a failure. Its
	// family name must not start with cfgate_backend_retries_total,
	// which the serving benchmark sums by prefix.
	failovers *obs.Counter
	proxied   *obs.Counter // requests it answered
}

// newGatewayMetrics builds the registry over the gateway's fixed backend
// set; the func-backed series read health and load state at scrape
// time.
func newGatewayMetrics(g *Gateway) *gatewayMetrics {
	reg := obs.NewRegistry()
	m := &gatewayMetrics{
		reg:      reg,
		requests: reg.Counter("cfgate_requests_total", "HTTP requests received, any endpoint."),
		rerouted: reg.Counter("cfgate_rerouted_total", "Proxy attempts routed past the first candidate."),
		failures: reg.Counter("cfgate_failures_total", "Requests answered 4xx/5xx or exhausted every candidate."),
		backends: make(map[string]*backendMetrics),
	}
	reg.GaugeFunc("cfgate_policy_info", "The routing policy in force (always 1).",
		func() float64 { return 1 }, obs.L("policy", string(g.cfg.Policy)))
	for _, backend := range g.ring.Backends() {
		label := obs.L("backend", backend)
		m.backends[backend] = &backendMetrics{
			proxy: reg.Histogram("cfgate_proxy_duration_seconds",
				"Upstream attempt latency by backend.", label),
			retries: reg.Counter("cfgate_backend_retries_total",
				"Attempts this backend failed or declined (the request moved on).", label),
			failovers: reg.Counter("cfgate_job_lookup_failovers_total",
				"Job lookups this backend answered 404 while the gateway tried the next backend.", label),
			proxied: reg.Counter("cfgate_backend_proxied_total", "Requests this backend answered.", label),
		}
		reg.GaugeFunc("cfgate_backend_healthy", "Whether the backend is admitted (1) or ejected (0).",
			func() float64 {
				if g.hlth.healthy(backend) {
					return 1
				}
				return 0
			}, label)
		reg.GaugeFunc("cfgate_backend_consecutive_failures", "Consecutive failed probes or proxy attempts.",
			func() float64 { return float64(g.hlth.state(backend).fails) }, label)
		reg.CounterFunc("cfgate_backend_ejections_total", "Healthy-to-ejected transitions.",
			func() float64 { return float64(g.hlth.state(backend).ejections) }, label)
		reg.GaugeFunc("cfgate_backend_inflight", "Requests currently proxied to the backend.",
			func() float64 { return float64(g.loads.load(backend)) }, label)
	}
	reg.GaugeFunc("cfgate_healthy_backends", "Backends currently admitted for routing.",
		func() float64 { return float64(len(g.bal.healthyBackends())) })
	return m
}
