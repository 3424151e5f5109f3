// Command perfbench is the repository's serving benchmark. It starts
// fresh cfserve (and, for hot-gateway, cfgate) processes, drives one of
// three workloads from this single load process, checks every answer,
// and prints the metrics BENCHMARK.json names as the last line of
// standard output. With --trace 1 it also replays the same requests
// in-process, timing each layer through its public functions, and prints
// the per-layer metrics instead.
//
// Run it through run.sh, which builds this command and both servers from
// the checkout first:
//
//	bash perfbench/run.sh --workload hot-direct --seed 1 --seconds 20 --trace 0
//
// README.md in this directory explains the workloads, rates and load
// rules.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	outDir   string
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "hot-direct | hot-gateway | cold-direct")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input and schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds: two thirds open loop, one third closed loop")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.binDir, "bin-dir", "", "directory holding the cfserve and cfgate binaries")
	flag.StringVar(&o.outDir, "out-dir", "", "directory the traced run writes its spans to (empty = none)")
	flag.Parse()
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and prints the environment stamp and
// details to out before returning the result line.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 3 {
		return nil, fmt.Errorf("--seconds %d: want at least 3", o.seconds)
	}
	if o.binDir == "" {
		return nil, errors.New("--bin-dir is required (run.sh sets it)")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc))
	total := time.Duration(o.seconds) * time.Second
	openDur := total * 2 / 3
	closedDur := total - openDur
	p, err := buildPlan(wl, o.seed, openDur, closedDur)
	if err != nil {
		return nil, err
	}
	var checks []string
	digest := p.digest()
	if wl.hot {
		// Both hot workloads must send byte-identical traffic.
		for _, other := range workloads() {
			if other.hot && other.name != wl.name {
				op, err := buildPlan(other, o.seed, openDur, closedDur)
				if err != nil {
					return nil, err
				}
				if op.digest() != digest {
					checks = append(checks, fmt.Sprintf("%s and %s sequences differ", wl.name, other.name))
				}
			}
		}
	} else if err := p.coldReuseCheck(coldReuseMargin); err != nil {
		checks = append(checks, "cold sequence: "+err.Error())
	}

	c := newClient(nproc)
	defer c.CloseIdleConnections()
	lr, err := runLive(ctx, o.binDir, p, c, nproc, closedDur)
	if err != nil {
		return nil, err
	}
	checks = append(checks, lr.checks...)

	printLine(out, "env", stamp(wl, o, nproc, lr.servers, digest))
	detail := map[string]any{
		"rate_rps": wl.rate, "open_s": openDur.Seconds(), "closed_s": closedDur.Seconds(),
		"open_requests": len(p.open), "closed_requests": len(lr.closed), "clients": nproc,
	}
	var metrics map[string]metric
	if o.trace {
		rr, err := runReplay(ctx, p, total)
		if err != nil {
			checks = append(checks, "replay: "+err.Error())
			rr = &replayResult{}
		}
		var d map[string]any
		metrics, d = perLayer(p, lr, rr)
		maps.Copy(detail, d)
		if o.outDir != "" && len(rr.spans) > 0 {
			path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))
			if err := writeSpans(path, rr.spans); err != nil {
				return nil, err
			}
			detail["spans_file"] = path
		}
	} else {
		var d map[string]any
		metrics, d, err = endToEnd(p, lr)
		if err != nil {
			return nil, err
		}
		maps.Copy(detail, d)
	}
	failed, msgs := failures(lr.openFail, lr.closedFail)
	detail["failures"] = msgs
	if kib, err := vmHWMKiB("/proc/self/status"); err == nil {
		detail["loadgen_peak_rss_mib"] = kib / 1024
	}
	detail["self_check_failures"] = checks
	printLine(out, "detail", detail)
	for _, msg := range append(msgs, checks...) {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	return &result{
		Correct:   failed == 0 && len(checks) == 0,
		Attempted: len(lr.open) + len(lr.closed),
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// printLine writes {"<key>": v} as one line.
func printLine(out io.Writer, key string, v any) {
	line, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Fprintln(out, string(line))
}

// stamp describes the machine, toolchain, code and servers of a run.
func stamp(wl workload, o options, nproc int, servers [][]string, seqDigest string) map[string]any {
	return map[string]any{
		"workload":        wl.name,
		"seed":            o.seed,
		"seconds":         o.seconds,
		"trace":           o.trace,
		"nproc":           nproc,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"goarch":          runtime.GOARCH,
		"cpu_model":       cpuModel(),
		"git_sha":         gitSHA(),
		"source_sha256":   sourceDigest(),
		"servers":         servers,
		"sequence_sha256": seqDigest,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA reports HEAD of the checkout in the working directory, marked
// -dirty when tracked files differ. Git is pointed at ./.git explicitly so
// it never searches parent directories; a checkout without one reports
// "none".
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_DIR=.git", "GIT_WORK_TREE=.")
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	sha, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	if status, err := git("status", "--porcelain", "--untracked-files=no"); err != nil || status != "" {
		sha += "-dirty"
	}
	return sha
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a result names the code it measured even where the
// checkout is not a git repository.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
