// Command cfload is an open-loop load generator and trace replayer for
// cfserve. It expands a seeded workload spec — arrival process
// (poisson/gamma/weibull), request rate, a mix of instance classes over
// /v1/reduce, /v1/maxis and /v1/jobs, and a target cache-hit ratio —
// into a deterministic request schedule, fires it at the server without
// waiting for completions (arrivals never depend on the server keeping
// up), and reports latency quantiles, throughput, per-class SLO
// attainment and the job queue-wait/run split (from the server's
// /metrics job counters, scraped before and after the run). Each
// request's latency runs from its scheduled instant, so waits for a
// client in-flight slot count, and a reused instance goes out in the
// format it was first sent in, so it hits the same server cache key.
//
// Every run can be recorded to a versioned JSONL trace (-record) that
// replays deterministically (-replay): the trace stores generator
// directives rather than bodies, so replays rebuild byte-identical
// requests and the deterministic outcome summary on stdout is
// byte-identical across replays of the same trace. Wall-clock numbers
// (latency, throughput, cache hits) go to the human report on stderr
// and, as JSON, to -perf-out.
//
// Examples:
//
//	cfload -addr http://localhost:8355 -requests 500 -rate 200 -seed 7 \
//	    -record burst.trace -perf-out perf.json > summary.json
//	cfload -replay burst.trace -seed 1 > summary2.json   # byte-identical summaries
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pslocal/internal/loadgen"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cfload:", err)
		os.Exit(1)
	}
}

// defaultMix is the built-in three-class workload: small reductions,
// mid-size independent-set calls, and async job submissions, across all
// wire formats.
func defaultMix() []loadgen.Class {
	return []loadgen.Class{
		{Name: "reduce-small", Weight: 3, Endpoint: loadgen.EndpointReduce, Kind: loadgen.KindHypergraph,
			Gen: "planted", N: 60, M: 24, K: 3, SizeLo: 3, SizeHi: 6,
			Formats: []string{"edgelist", "json"},
			Params:  loadgen.Params{K: 3, Oracle: "greedy-mindeg", Seed: 1}, SLOMillis: 500},
		{Name: "maxis-gnp", Weight: 2, Endpoint: loadgen.EndpointMaxIS, Kind: loadgen.KindGraph,
			Gen: "gnp", N: 80, P: 0.08,
			Formats: []string{"edgelist", "dimacs", "json"},
			Params:  loadgen.Params{Oracle: "greedy-mindeg", Seed: 1}, SLOMillis: 500},
		{Name: "jobs-planted", Weight: 1, Endpoint: loadgen.EndpointJobs, Kind: loadgen.KindHypergraph,
			Gen: "planted", N: 60, M: 24, K: 3, SizeLo: 3, SizeHi: 6,
			Formats: []string{"json"},
			Params:  loadgen.Params{K: 3, Priority: "high"}, SLOMillis: 250},
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cfload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8355", "cfserve base URL")
		requests = fs.Int("requests", 200, "number of requests to generate")
		rate     = fs.Float64("rate", 100, "mean arrival rate in requests/second")
		arrival  = fs.String("arrival", "poisson", "inter-arrival distribution: poisson, gamma, weibull")
		shape    = fs.Float64("shape", 1, "shape parameter for gamma/weibull arrivals")
		hitRatio = fs.Float64("hit-ratio", 0.5, "target instance-reuse ratio in [0,1) steering server cache hits")
		mixPath  = fs.String("mix", "", "JSON file with the class mix ([]Class); empty = built-in three-class mix")
		seed     = fs.Int64("seed", 1, "workload seed (schedule, instances, reuse draws)")
		record   = fs.String("record", "", "write the executed trace to this JSONL file")
		replay   = fs.String("replay", "", "replay a recorded trace instead of generating one")
		speed    = fs.Float64("speed", 0, "schedule pacing: 1 = real-time arrival offsets, 2 = 2x fast, 0 = no pacing")
		perfOut  = fs.String("perf-out", "", "write the wall-clock perf report (JSON) to this file")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		inflight = fs.Int("max-inflight", 0, "client-side in-flight request cap (0 = 512)")
		label    = fs.String("label", "cfload", "label attached to job submissions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	var trace *loadgen.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		trace, err = loadgen.ReadTrace(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("replay %s: %w", *replay, err)
		}
		fmt.Fprintf(stderr, "cfload: replaying %s: %d requests, seed %d\n", *replay, len(trace.Records), trace.Seed)
	} else {
		classes := defaultMix()
		if *mixPath != "" {
			data, err := os.ReadFile(*mixPath)
			if err != nil {
				return err
			}
			classes = nil
			if err := json.Unmarshal(data, &classes); err != nil {
				return fmt.Errorf("mix %s: %w", *mixPath, err)
			}
		}
		spec := loadgen.Spec{
			Seed:     *seed,
			Requests: *requests,
			Rate:     *rate,
			Arrival:  *arrival,
			Shape:    *shape,
			HitRatio: *hitRatio,
			Classes:  classes,
		}
		var err error
		trace, err = loadgen.Plan(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cfload: planned %d requests at %.0f/s (%s arrivals, hit-ratio %.2f, seed %d)\n",
			len(trace.Records), *rate, *arrival, *hitRatio, *seed)
	}

	client := &loadgen.Client{
		BaseURL:     *addr,
		HTTP:        loadgen.DefaultHTTPClient(*timeout),
		Speed:       *speed,
		MaxInflight: *inflight,
		Label:       *label,
	}
	rep, err := client.Run(ctx, trace)
	if err != nil {
		return err
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		werr := loadgen.WriteTrace(f, trace)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("record %s: %w", *record, werr)
		}
		fmt.Fprintf(stderr, "cfload: trace written to %s\n", *record)
	}
	if *perfOut != "" {
		data, err := json.MarshalIndent(rep.Perf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*perfOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	printHuman(stderr, rep)

	// stdout carries exactly the deterministic summary, so
	// `cfload -replay t > summary.json` is byte-stable across runs.
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep.Summary); err != nil {
		return err
	}

	if rep.Summary.OK == 0 {
		return errors.New("no request succeeded — is the server reachable?")
	}
	return nil
}

// printHuman renders the wall-clock report for terminals.
func printHuman(w io.Writer, rep *loadgen.Report) {
	p := rep.Perf
	fmt.Fprintf(w, "cfload: %d requests in %.2fs (%.1f req/s), %d errors\n",
		p.Requests, p.DurationS, p.ThroughputRPS, p.Errors)
	fmt.Fprintf(w, "cfload: latency ms p50=%.2f p95=%.2f p99=%.2f max=%.2f mean=%.2f\n",
		p.Latency.P50MS, p.Latency.P95MS, p.Latency.P99MS, p.Latency.MaxMS, p.Latency.MeanMS)
	fmt.Fprintf(w, "cfload: cache hits=%d misses=%d\n", p.CacheHits, p.CacheMisses)
	if p.SLO.Eligible > 0 {
		fmt.Fprintf(w, "cfload: SLO attained %d/%d (%.1f%%)\n",
			p.SLO.Attained, p.SLO.Eligible, 100*p.SLO.Ratio)
	}
	for _, c := range p.Classes {
		fmt.Fprintf(w, "cfload:   class %-14s %4d req  ok=%-4d p50=%.2fms p99=%.2fms slo=%.0fms attained=%.1f%%\n",
			c.Name, c.Requests, c.OK, c.Latency.P50MS, c.Latency.P99MS, c.SLOMillis, 100*c.SLORatio)
	}
	if p.Jobs != nil {
		fmt.Fprintf(w, "cfload: jobs started=%d finished=%d queue-wait mean=%.2fms run mean=%.2fms\n",
			p.Jobs.Started, p.Jobs.Finished, p.Jobs.WaitMeanMS, p.Jobs.RunMeanMS)
	}
}
