// Command benchmerge parses `go test -bench` output on stdin and appends
// the results to the JSON perf trajectory (default BENCH_gk.json): a
// stable {"schema":1,"history":[...]} document with one entry per run,
// keyed by git SHA, so successive PRs accumulate a comparable history
// instead of overwriting each other. Re-running on the same SHA replaces
// that SHA's entry; a legacy flat-array file (the pre-history schema) is
// migrated into a single entry with sha "legacy".
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem . | go run ./scripts/benchmerge -out BENCH_gk.json -sha "$(git rev-parse HEAD)"
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op"`
	AllocsPerOp *int64  `json:"allocs_per_op"`
}

// Entry is one benchmark run in the trajectory.
type Entry struct {
	SHA      string `json:"sha"`
	UnixTime int64  `json:"unix_time"`
	// Quick marks 1-iteration CI-mode runs, whose timings must not be
	// compared against full measurements.
	Quick   bool     `json:"quick,omitempty"`
	Results []Result `json:"results"`
}

// Trajectory is the on-disk document.
type Trajectory struct {
	Schema  int     `json:"schema"`
	History []Entry `json:"history"`
}

func main() {
	var (
		out   = flag.String("out", "BENCH_gk.json", "trajectory file to update")
		sha   = flag.String("sha", "unknown", "git SHA keying this run's entry")
		unix  = flag.Int64("time", 0, "unix seconds of the run (0 = now)")
		quick = flag.Bool("quick", false, "mark the entry as a 1-iteration quick run")
		gate  = flag.String("alloc-gate", "",
			"regexp of benchmark names whose allocs_per_op must not grow vs the last recorded entry; a regression fails the merge")
	)
	flag.Parse()
	if err := run(*out, *sha, *unix, *quick, *gate, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmerge:", err)
		os.Exit(1)
	}
}

func run(out, sha string, unix int64, quick bool, gate string, in io.Reader) error {
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	if unix == 0 {
		unix = time.Now().Unix()
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		return err
	}
	if gate != "" {
		if err := checkAllocGate(traj, sha, results, gate); err != nil {
			return err
		}
	}
	merge(traj, Entry{SHA: sha, UnixTime: unix, Quick: quick, Results: results})
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// baseName strips the -<GOMAXPROCS> suffix from a benchmark name so runs
// from machines with different core counts stay comparable.
var procSuffix = regexp.MustCompile(`-\d+$`)

func baseName(name string) string { return procSuffix.ReplaceAllString(name, "") }

// checkAllocGate enforces the serve-path allocation line: every new
// result whose name matches the gate pattern must not allocate more
// objects per op than the most recent prior entry (skipping entries for
// the same SHA, which this run replaces) that measured the same
// benchmark. Allocation counts are deterministic, so the gate is stable
// even under 1-iteration quick runs.
func checkAllocGate(traj *Trajectory, sha string, results []Result, gate string) error {
	re, err := regexp.Compile(gate)
	if err != nil {
		return fmt.Errorf("alloc-gate pattern: %w", err)
	}
	// Most recent recorded alloc count per gated benchmark base name.
	baseline := map[string]int64{}
	for _, e := range traj.History {
		if e.SHA == sha {
			continue
		}
		for _, r := range e.Results {
			if r.AllocsPerOp != nil && re.MatchString(r.Name) {
				baseline[baseName(r.Name)] = *r.AllocsPerOp
			}
		}
	}
	var regressions []string
	for _, r := range results {
		if r.AllocsPerOp == nil || !re.MatchString(r.Name) {
			continue
		}
		if prev, ok := baseline[baseName(r.Name)]; ok && *r.AllocsPerOp > prev {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d allocs/op, was %d", baseName(r.Name), *r.AllocsPerOp, prev))
		}
	}
	if len(regressions) > 0 {
		msg := "ALLOCATION GATE FAILED — serve-path allocs/op grew vs the recorded trajectory:\n"
		for _, s := range regressions {
			msg += "  " + s + "\n"
		}
		return errors.New(msg + "fix the regression (or update the trajectory deliberately without -alloc-gate)")
	}
	return nil
}

// benchLine matches `go test -bench` result lines, e.g.
// "BenchmarkFoo-8   954   1324332 ns/op   9536 B/op   6 allocs/op".
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBench extracts the benchmark results from raw `go test` output.
func parseBench(in io.Reader) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iterations in %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("ns/op in %q: %w", sc.Text(), err)
		}
		r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			b, _ := strconv.ParseInt(m[4], 10, 64)
			r.BytesPerOp = &b
		}
		if m[5] != "" {
			a, _ := strconv.ParseInt(m[5], 10, 64)
			r.AllocsPerOp = &a
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// loadTrajectory reads the existing file, accepting the current history
// schema, the legacy flat result array, or a missing/empty file.
func loadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		return &Trajectory{Schema: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err == nil && traj.History != nil {
		traj.Schema = 1
		return &traj, nil
	}
	var legacy []Result
	if err := json.Unmarshal(data, &legacy); err == nil {
		return &Trajectory{Schema: 1, History: []Entry{{SHA: "legacy", Results: legacy}}}, nil
	}
	return nil, fmt.Errorf("%s is neither a history document nor a legacy result array", path)
}

// merge appends e to the history, replacing any existing entry with the
// same SHA (re-running on one commit keeps a single entry) — except that
// a quick run never replaces a full measurement: 1-iteration noise must
// not destroy the numbers the trajectory exists to keep.
func merge(traj *Trajectory, e Entry) {
	for i := range traj.History {
		if traj.History[i].SHA == e.SHA {
			if e.Quick && !traj.History[i].Quick {
				return
			}
			traj.History[i] = e
			return
		}
	}
	traj.History = append(traj.History, e)
}
