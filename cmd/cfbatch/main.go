// Command cfbatch runs the Theorem 1.1 reduction over every instance in
// a directory through the asynchronous job subsystem: it enqueues each
// matching file as a job on an in-process pslocal.JobManager, waits with
// a live progress line per job, and exits non-zero if any job failed —
// the batch-sweep workload (locally-optimal structure families, instance
// grids) as a one-command pipeline.
//
// Usage examples:
//
//	cfbatch -dir instances
//	cfbatch -dir instances -glob '*.json' -workers 4 -priority high
//	cfbatch -dir instances -out results -k 3 -oracle portfolio:greedy-mindeg,clique-removal
//	cfbatch -dir instances -deadline 30s -retries 2 -timeout 10m
//
// Instances may mix every graphio format (the parser sniffs each body);
// a file that does not parse as a hypergraph fails its own job without
// stopping the batch. With -out, each completed job persists its result
// as a graphio reduction-result document named by the job's content
// hash — the same store layout cfserve's -jobs-dir uses, so a later
// cfbatch or cfserve over the same directory recovers the finished work
// and dedupes resubmissions instead of re-solving.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"pslocal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cfbatch:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg, timeout, err := parseFlags(os.Args[1:])
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return runBatch(ctx, cfg, os.Stdout)
}

// parseFlags resolves the command line into the batch configuration and
// the overall timeout. Each job gets the parameters cfserve fills in for
// the same request, one worker included, so a cfserve over the -out
// store dedupes onto the swept jobs; -workers sizes the job pool.
func parseFlags(args []string) (batchConfig, time.Duration, error) {
	fs := flag.NewFlagSet("cfbatch", flag.ExitOnError)
	var (
		dir      = fs.String("dir", "", "instance directory to sweep (required)")
		glob     = fs.String("glob", "*", "file name filter inside -dir")
		outDir   = fs.String("out", "", "persistent job store directory (default: in-memory only)")
		workers  = fs.Int("workers", 0, "job worker pool width (0 = GOMAXPROCS)")
		priority = fs.String("priority", "normal", "queue lane: low | normal | high")
		k        = fs.Int("k", 3, "palette size per phase")
		oracle   = fs.String("oracle", "implicit", "strategy: implicit | exact | a registry oracle name | portfolio:<a>,<b>,...")
		seed     = fs.Int64("seed", 1, "random seed for randomized oracles")
		deadline = fs.Duration("deadline", 0, "per-job run deadline (0 = unbounded)")
		retries  = fs.Int("retries", 0, "transient-failure retry budget per job")
		timeout  = fs.Duration("timeout", 0, "overall batch timeout (0 = unbounded)")
	)
	fs.Parse(args)
	if *dir == "" {
		return batchConfig{}, 0, fmt.Errorf("missing -dir (the instance directory to sweep)")
	}
	prio, err := pslocal.ParseJobPriority(*priority)
	if err != nil {
		return batchConfig{}, 0, err
	}
	return batchConfig{
		dir:      *dir,
		glob:     *glob,
		outDir:   *outDir,
		workers:  *workers,
		priority: prio,
		params:   pslocal.JobParams{K: *k, Oracle: *oracle, Seed: *seed, Workers: 1},
		deadline: *deadline,
		retries:  *retries,
	}, *timeout, nil
}

// batchConfig carries the resolved flags.
type batchConfig struct {
	dir      string
	glob     string
	outDir   string
	workers  int
	priority pslocal.JobPriority
	params   pslocal.JobParams
	deadline time.Duration
	retries  int
}

// collectFiles lists the regular files under dir matching glob, sorted
// for a deterministic submission order.
func collectFiles(dir, glob string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		return nil, fmt.Errorf("bad -glob pattern %q: %w", glob, err)
	}
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil || !st.Mode().IsRegular() {
			continue
		}
		files = append(files, p)
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no instance files match %s", filepath.Join(dir, glob))
	}
	return files, nil
}

// submitted pairs a job id with the file it came from.
type submitted struct {
	id, file string
	deduped  bool
}

// runBatch is the testable core: enqueue every matching file, wait for
// each in submission order with a progress line, print the counter
// summary, and fail if any job failed.
func runBatch(ctx context.Context, cfg batchConfig, w io.Writer) error {
	files, err := collectFiles(cfg.dir, cfg.glob)
	if err != nil {
		return err
	}
	jm, err := pslocal.NewJobManager(pslocal.JobConfig{
		Dir:     cfg.outDir,
		Workers: cfg.workers,
		// The queue must hold the whole sweep: every file is enqueued
		// before the first Await.
		QueueCap: len(files),
	})
	if err != nil {
		return err
	}
	defer jm.Close()

	subs := make([]submitted, 0, len(files))
	for _, file := range files {
		body, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		info, accepted, err := jm.Submit(pslocal.JobRequest{
			Body:       body,
			Params:     cfg.params,
			Priority:   cfg.priority,
			Deadline:   cfg.deadline,
			MaxRetries: cfg.retries,
			Label:      filepath.Base(file),
		})
		if err != nil {
			return fmt.Errorf("enqueueing %s: %w", file, err)
		}
		subs = append(subs, submitted{id: info.ID, file: file, deduped: !accepted})
	}
	fmt.Fprintf(w, "enqueued %d jobs from %s (glob %s, priority %s, workers per pool: %d)\n",
		len(subs), cfg.dir, cfg.glob, cfg.priority, jm.Stats().Workers)

	// The summary counts THIS batch's outcomes from the awaited
	// snapshots — a dedupe onto a previous run's stored job is still a
	// "done" for this sweep; the manager's Stats only count terminal
	// transitions made by this process.
	outcomes := map[pslocal.JobState]int{}
	for i, sub := range subs {
		final, err := jm.Await(ctx, sub.id)
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", sub.file, err)
		}
		outcomes[final.State]++
		note := ""
		if sub.deduped {
			note = " (deduped)"
		}
		switch final.State {
		case pslocal.JobDone:
			fmt.Fprintf(w, "[%d/%d] done    %s colors=%d phases=%d wait=%.1fms run=%.1fms%s\n",
				i+1, len(subs), filepath.Base(sub.file),
				final.TotalColors, final.PhaseCount, final.WaitMS(), final.RunMS(), note)
		default:
			fmt.Fprintf(w, "[%d/%d] %-7s %s: %s%s\n",
				i+1, len(subs), final.State, filepath.Base(sub.file), final.Error, note)
		}
	}

	st := jm.Stats()
	failures := outcomes[pslocal.JobFailed] + outcomes[pslocal.JobCancelled]
	fmt.Fprintf(w, "batch: %d done, %d failed, %d cancelled, %d retries, %d deduped; wait %.1fms, run %.1fms\n",
		outcomes[pslocal.JobDone], outcomes[pslocal.JobFailed], outcomes[pslocal.JobCancelled],
		st.Retries, st.Deduped, st.WaitSumMS, st.RunSumMS)
	if cfg.outDir != "" {
		fmt.Fprintf(w, "results: %s\n", cfg.outDir)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d jobs failed", failures, len(subs))
	}
	return nil
}
