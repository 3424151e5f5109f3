// Command cfserve serves the reduction pipeline over HTTP: POST a
// hypergraph (or graph) in any internal/graphio format, pick the oracle
// and worker count per request, and get the result back as JSON —
// Maus's Theorem 1.1 reduction as a request/response service.
//
// Endpoints:
//
//	POST   /v1/reduce       conflict-free multicolouring of the posted hypergraph
//	                        ?k=3&oracle=implicit|exact|<registry name>&workers=N&seed=S&format=auto|edgelist|dimacs|json
//	POST   /v1/maxis        independent set of the posted graph
//	                        ?oracle=<registry name>&algorithm=oracle|carving&delta=1.0&workers=N&seed=S&format=...
//	POST   /v1/jobs         enqueue the posted hypergraph as an async job, returns the id immediately
//	                        (same parameters as /v1/reduce, plus priority=low|normal|high,
//	                        deadline_ms=N, max_retries=N, label=...)
//	GET    /v1/jobs/{id}    job state; embeds the result document once done
//	GET    /v1/jobs         job list, ?state=queued|running|done|failed|cancelled&label=...&limit=N
//	DELETE /v1/jobs/{id}    cooperative cancellation
//	GET    /v1/jobs/{id}/events  state transitions as server-sent events
//	GET    /healthz         liveness (200 even while draining)
//	GET    /readyz          readiness (503 while draining — what cfgate probes)
//	POST   /drainz          start a graceful drain: stop admitting, finish running jobs
//	GET    /metrics         every server counter, gauge and latency histogram as a
//	                        Prometheus text exposition
//	GET    /statz           the instance cache counters as JSON (read by the
//	                        serving benchmark; everything else is on /metrics)
//	GET    /v1/traces       recent solve traces newest-first, ?limit=N (ring sized by -trace-ring)
//
// Observability: ?trace=1 on the solve endpoints embeds the per-phase
// span tree in the response; every response echoes (or mints) an
// X-Pslocal-Request-Id correlation id, also stamped on traces and job
// metadata; requests at or above -slow-ms log a structured warning.
//
// With -jobs-dir set, jobs persist their results there as graphio result
// documents named by the job's content hash; on restart the directory is
// rescanned, so completed jobs survive reboots and identical
// resubmissions dedupe onto the stored result. The store assumes a
// single writer: give every cfserve instance its own directory. Without
// -jobs-dir, jobs live in memory only.
//
// Quick start (the same instance ships in testdata/quickstart.json and is
// smoke-tested by CI):
//
//	cfserve -addr :8355 &
//	curl -fsS -X POST --data-binary @cmd/cfserve/testdata/quickstart.json \
//	  'http://localhost:8355/v1/reduce?k=3&oracle=greedy-mindeg&workers=2'
//
// Concurrency: at most -max-inflight solves run at once (excess requests
// queue at the admission gate, honouring per-request cancellation), and
// each request's worker fan-out is capped by -max-workers. Parsed
// instances are cached by content hash (-cache-entries), so repeated
// submissions of a hot graph skip parsing and CSR construction. Behind
// cfgate the same hash routes an instance to the node that caches it.
//
// Shutdown: SIGTERM (or POST /drainz) drains gracefully — /readyz flips
// to 503 so the gateway stops routing here (when /readyz is being
// probed, the listener stays open up to -drain-grace so the prober
// observes the drain before connections start refusing), new solve and
// job submissions are refused with 503 + Retry-After, in-flight
// requests and running jobs finish (bounded by -drain-timeout), and
// only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cfserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8355", "listen address")
		maxWorkers   = flag.Int("max-workers", 0, "per-request worker cap (0 = GOMAXPROCS)")
		maxInflight  = flag.Int("max-inflight", 0, "concurrent solve bound (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache-entries", 128, "parsed-instance cache capacity")
		maxBodyMB    = flag.Int64("max-body-mb", 64, "request body cap in MiB")
		seed         = flag.Int64("seed", 1, "default oracle seed when the request has none")
		jobsDir      = flag.String("jobs-dir", "",
			"persistent job store directory, rescanned on restart (empty = in-memory only; each instance needs its own directory)")
		jobWorkers = flag.Int("job-workers", 0, "job worker pool width (0 = GOMAXPROCS)")
		jobQueue   = flag.Int("job-queue", 1024, "job queue capacity across priority lanes")
		pprofAddr  = flag.String("pprof", "",
			"pprof listen address, e.g. localhost:6060 (empty = disabled; served on its own mux, never on -addr)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"bound on finishing in-flight requests and running jobs at shutdown")
		drainGrace = flag.Duration("drain-grace", 2*time.Second,
			"how long SIGTERM keeps the listener open after flipping /readyz to 503, so a probing gateway ejects the node before connections refuse (0 = close immediately; skipped when nothing probes /readyz)")
		slowMS = flag.Int64("slow-ms", 1000,
			"log a structured warning for requests at or above this many milliseconds (0 = disabled)")
		traceRing = flag.Int("trace-ring", 128,
			"how many finished solve traces GET /v1/traces retains")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cfserve")

	if *pprofAddr != "" {
		// Profiling gets its own mux on its own listener: the service mux
		// stays free of debug handlers, and binding -pprof to localhost
		// keeps profiles off the public address entirely.
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			logger.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	s, err := newServer(config{
		maxWorkers:   *maxWorkers,
		maxInflight:  *maxInflight,
		cacheEntries: *cacheEntries,
		maxBodyBytes: *maxBodyMB << 20,
		seed:         *seed,
		jobsDir:      *jobsDir,
		jobWorkers:   *jobWorkers,
		jobQueueCap:  *jobQueue,
		slow:         time.Duration(*slowMS) * time.Millisecond,
		traceRing:    *traceRing,
		logger:       logger,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		store := *jobsDir
		if store == "" {
			store = "in-memory"
		}
		logger.Info("listening",
			"addr", *addr,
			"endpoints", "POST /v1/reduce, POST /v1/maxis, /v1/jobs..., GET /metrics, GET /v1/traces, GET /healthz, GET /readyz",
			"job_store", store)
		errc <- httpServer.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		// Drain order matters: flip readiness first so the gateway stops
		// routing here, let its prober observe the 503, flush in-flight
		// HTTP requests, then wait for running and queued jobs — all
		// under one deadline. The deferred Close cancels whatever the
		// deadline cut off.
		logger.Info("draining on signal", "signal", sig.String(), "timeout", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		s.draining.Store(true)
		// Shutdown closes the listeners at once, and a gateway that has
		// not yet seen the 503 readiness would keep routing here and get
		// connection refusals instead of retryable 503s. So when /readyz
		// is being probed, hold the listener open until enough probes
		// observed the drain for cfgate's default ejection threshold (or
		// the grace runs out). A node nobody probes skips the wait.
		if grace := *drainGrace; grace > 0 && s.readyProbedWithin(grace) {
			select {
			case <-s.drainEjected:
			case <-time.After(grace):
			case <-ctx.Done():
			}
		}
		if err := httpServer.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if err := s.Drain(ctx); err != nil {
			logger.Warn("drain incomplete, remaining jobs cancel", "err", err)
		} else {
			logger.Info("drained, exiting")
		}
		return nil
	}
}
