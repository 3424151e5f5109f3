package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pslocal
cpu: whatever
BenchmarkConflictGraphBuild-8   	    1000	   1234567 ns/op	  345678 B/op	     901 allocs/op
BenchmarkPortfolioOracleParallel 	      54	  22222222.5 ns/op
PASS
ok  	pslocal	2.345s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	r := results[0]
	if r.Name != "BenchmarkConflictGraphBuild-8" || r.Iterations != 1000 || r.NsPerOp != 1234567 {
		t.Errorf("first result = %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 345678 || r.AllocsPerOp == nil || *r.AllocsPerOp != 901 {
		t.Errorf("first result memory fields = %+v", r)
	}
	if results[1].BytesPerOp != nil || results[1].AllocsPerOp != nil {
		t.Errorf("missing -benchmem fields should be null, got %+v", results[1])
	}
	if results[1].NsPerOp != 22222222.5 {
		t.Errorf("fractional ns/op parsed as %v", results[1].NsPerOp)
	}
}

func TestRunAppendsAndReplacesBySHA(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(out, "sha1", 100, false, "", strings.NewReader(sample)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(out, "sha2", 200, true, "", strings.NewReader(sample)); err != nil {
		t.Fatalf("second run: %v", err)
	}
	// Same SHA again with a full run: the quick entry is upgraded in
	// place, not duplicated.
	if err := run(out, "sha2", 300, false, "", strings.NewReader(sample)); err != nil {
		t.Fatalf("third run: %v", err)
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if traj.Schema != 1 || len(traj.History) != 2 {
		t.Fatalf("trajectory = schema %d, %d entries; want schema 1 with 2 entries", traj.Schema, len(traj.History))
	}
	if traj.History[0].SHA != "sha1" || traj.History[1].SHA != "sha2" {
		t.Errorf("history order = %s, %s", traj.History[0].SHA, traj.History[1].SHA)
	}
	if traj.History[1].UnixTime != 300 || traj.History[1].Quick {
		t.Errorf("full rerun kept %+v, want time 300 quick=false (upgraded)", traj.History[1])
	}
	// A quick run must never replace a full measurement for the same SHA.
	if err := run(out, "sha1", 500, true, "", strings.NewReader(sample)); err != nil {
		t.Fatalf("quick-over-full run: %v", err)
	}
	traj, err = loadTrajectory(out)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if traj.History[0].UnixTime != 100 || traj.History[0].Quick {
		t.Errorf("quick run replaced full entry: %+v", traj.History[0])
	}
}

func TestLoadTrajectoryMigratesLegacyArray(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	legacy := `[
  {"name":"BenchmarkOld","iterations":5,"ns_per_op":9.5,"bytes_per_op":null,"allocs_per_op":null}
]`
	if err := os.WriteFile(out, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(out, "new", 400, false, "", strings.NewReader(sample)); err != nil {
		t.Fatalf("run over legacy: %v", err)
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(traj.History) != 2 || traj.History[0].SHA != "legacy" || traj.History[1].SHA != "new" {
		t.Fatalf("migrated history = %+v", traj.History)
	}
	if traj.History[0].Results[0].Name != "BenchmarkOld" {
		t.Errorf("legacy results lost: %+v", traj.History[0].Results)
	}
}

// allocSample renders bench output for one -benchmem benchmark with the
// given allocs/op, under the GOMAXPROCS suffix of the caller's choosing.
func allocSample(name string, allocs int64) string {
	return fmt.Sprintf("Benchmark%s   \t     100\t   5000 ns/op\t     128 B/op\t       %d allocs/op\nPASS\n",
		name, allocs)
}

func TestAllocGate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	gate := "SolverCacheHitAllocs"
	// Baseline entry: zero allocs on the gated benchmark.
	if err := run(out, "base", 100, false, gate, strings.NewReader(allocSample("SolverCacheHitAllocs-8", 0))); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	// Equal count passes, and a different GOMAXPROCS suffix still matches
	// the recorded baseline.
	if err := run(out, "next", 200, false, gate, strings.NewReader(allocSample("SolverCacheHitAllocs-16", 0))); err != nil {
		t.Fatalf("equal-alloc run rejected: %v", err)
	}
	// A regression fails and leaves the trajectory unwritten.
	err := run(out, "bad", 300, false, gate, strings.NewReader(allocSample("SolverCacheHitAllocs-8", 3)))
	if err == nil || !strings.Contains(err.Error(), "ALLOCATION GATE FAILED") {
		t.Fatalf("regressed run: err = %v, want gate failure", err)
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range traj.History {
		if e.SHA == "bad" {
			t.Error("gate failure still wrote the regressed entry")
		}
	}
	// Ungated benchmarks regress freely.
	if err := run(out, "other", 400, false, gate, strings.NewReader(allocSample("SomethingElse-8", 999))); err != nil {
		t.Fatalf("ungated benchmark tripped the gate: %v", err)
	}
	// Re-running the baseline SHA compares against other entries, not the
	// entry this run replaces — so a same-SHA rerun with more allocs than
	// its own old entry but within the rest of history still fails here
	// (history has zero-alloc entries from other SHAs).
	err = run(out, "base", 500, false, gate, strings.NewReader(allocSample("SolverCacheHitAllocs-8", 1)))
	if err == nil {
		t.Error("regression on same-SHA rerun slipped past the gate")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(out, "sha", 1, false, "", strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty benchmark input accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("output written despite empty input")
	}
}
