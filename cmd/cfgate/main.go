// Command cfgate is the cluster gateway: it fronts a set of cfserve
// backends and routes /v1/reduce, /v1/maxis and /v1/jobs traffic by
// cache affinity — the routing key is the solver's instance cache key
// (the sha256 content hash of kind, format and body), computed here
// from the buffered body. Repeated submissions of the same instance
// land on the same backend and hit its parsed-instance cache; the
// backend hashes the body itself for that lookup.
//
// Endpoints mirror cfserve's API one for one; responses carry the
// serving backend in X-Pslocal-Backend. The gateway adds:
//
//	GET /healthz   gateway liveness and uptime
//	GET /readyz    ready when at least one backend is admitted
//	GET /metrics   Prometheus exposition: request/reroute/failure counters,
//	               the routing policy, and per backend the proxy latency,
//	               retries, job-lookup failovers, proxied totals, health,
//	               consecutive failures, ejections and in-flight counts
//
// Every request carries an X-Pslocal-Request-Id — the client's when
// valid, minted here otherwise — forwarded on every proxy attempt and
// echoed on the response; proxied requests at or above -slow-ms log a
// structured warning.
//
// Backends are probed on -probe-interval at -probe-path (cfserve's
// /readyz, which a draining node answers 503): -fail-after consecutive
// failures eject a backend, ejected backends re-probe under exponential
// backoff, and transport errors observed while proxying eject passively
// between probes. Failed idempotent requests retry against the next
// ring candidates (-retries), so draining or killing one node mid-burst
// costs clients nothing.
//
// Quick start (three nodes sharing a job store, one gateway):
//
//	cfserve -addr :8361 -jobs-dir /tmp/cfjobs &
//	cfserve -addr :8362 -jobs-dir /tmp/cfjobs &
//	cfserve -addr :8363 -jobs-dir /tmp/cfjobs &
//	cfgate -addr :8360 -backends http://localhost:8361,http://localhost:8362,http://localhost:8363 &
//	curl -fsS -X POST --data-binary @cmd/cfserve/testdata/quickstart.json \
//	  'http://localhost:8360/v1/reduce?k=3&oracle=greedy-mindeg'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pslocal/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cfgate:", err)
		os.Exit(1)
	}
}

// resolveBackends merges the -backends list with the -backends-file
// contents (one URL per line, '#' comments and blank lines skipped).
func resolveBackends(csv, file string) ([]string, error) {
	var backends []string
	for _, b := range strings.Split(csv, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("reading -backends-file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			backends = append(backends, line)
		}
	}
	if len(backends) == 0 {
		return nil, errors.New("no backends: set -backends and/or -backends-file")
	}
	return backends, nil
}

func run() error {
	var (
		addr          = flag.String("addr", ":8360", "listen address")
		backendsCSV   = flag.String("backends", "", "comma-separated cfserve base URLs (http://host:port)")
		backendsFile  = flag.String("backends-file", "", "file with one backend URL per line (# comments); merged with -backends")
		policy        = flag.String("policy", "affinity", "routing policy: affinity|round-robin|least-loaded")
		retries       = flag.Int("retries", 2, "extra backends a failed idempotent request tries")
		replicas      = flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = default)")
		maxBodyMB     = flag.Int64("max-body-mb", 64, "request body cap in MiB")
		inflight      = flag.Int("backend-inflight", 0, "per-backend in-flight cap before affinity spills (0 = never spill)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "backend health probe interval")
		probeTimeout  = flag.Duration("probe-timeout", 0, "probe request timeout (0 = the interval)")
		probePath     = flag.String("probe-path", "/readyz", "probed backend endpoint")
		failAfter     = flag.Int("fail-after", cluster.DefaultFailAfter, "consecutive probe/transport failures that eject a backend")
		slowMS        = flag.Int64("slow-ms", 1000,
			"log a structured warning for proxied requests at or above this many milliseconds (0 = disabled)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cfgate")

	backends, err := resolveBackends(*backendsCSV, *backendsFile)
	if err != nil {
		return err
	}
	gw, err := cluster.New(cluster.Config{
		Backends:        backends,
		Policy:          cluster.Policy(*policy),
		Replicas:        *replicas,
		Retries:         *retries,
		MaxBodyBytes:    *maxBodyMB << 20,
		BackendInflight: *inflight,
		Probe: cluster.ProbeConfig{
			Interval:  *probeInterval,
			Timeout:   *probeTimeout,
			FailAfter: *failAfter,
			Path:      *probePath,
		},
		Logger:        logger,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go gw.Run(ctx)

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           gw,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", *addr,
			"policy", *policy,
			"backends", strings.Join(backends, " "))
		errc <- httpServer.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		logger.Info("shutting down on signal", "signal", sig.String())
		sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer scancel()
		if err := httpServer.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
