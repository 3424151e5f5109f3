package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pslocal"
)

// writeInstances populates dir with a small mixed-format sweep: two
// edge-list hypergraphs and one JSON hypergraph.
func writeInstances(t *testing.T, dir string) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var files []string
	for i, name := range []string{"a.hg", "b.hg"} {
		h, _, err := pslocal.PlantedCF(20+2*i, 8, 2, 2, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		var hbuf bytes.Buffer
		if err := pslocal.WriteHypergraph(&hbuf, h, pslocal.FormatEdgeList); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, hbuf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	jsonPath := filepath.Join(dir, "c.json")
	if err := os.WriteFile(jsonPath, []byte(`{"type":"hypergraph","n":6,"edges":[[0,1,2],[3,4,5]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return append(files, jsonPath)
}

func TestCollectFiles(t *testing.T) {
	dir := t.TempDir()
	writeInstances(t, dir)
	if err := os.Mkdir(filepath.Join(dir, "sub.hg"), 0o755); err != nil { // directories are skipped
		t.Fatal(err)
	}
	all, err := collectFiles(dir, "*")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("collected %d files, want 3: %v", len(all), all)
	}
	hgOnly, err := collectFiles(dir, "*.hg")
	if err != nil {
		t.Fatal(err)
	}
	if len(hgOnly) != 2 {
		t.Fatalf("glob *.hg matched %d, want 2", len(hgOnly))
	}
	if _, err := collectFiles(dir, "*.col"); err == nil {
		t.Error("empty match reported no error")
	}
}

// TestRunBatchMixedFormats drives the full pipeline over a mixed-format
// directory with a persistent store: every job completes, the results
// land in -out as readable result documents, and the summary counts
// match.
func TestRunBatchMixedFormats(t *testing.T) {
	dir := t.TempDir()
	out := t.TempDir()
	writeInstances(t, dir)
	var buf bytes.Buffer
	cfg := batchConfig{
		dir: dir, glob: "*", outDir: out, workers: 2,
		priority: pslocal.JobPriorityHigh,
		params:   pslocal.JobParams{K: 2, Oracle: "greedy-mindeg", Seed: 1},
	}
	if err := runBatch(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("runBatch: %v\n%s", err, buf.String())
	}
	outText := buf.String()
	if !strings.Contains(outText, "enqueued 3 jobs") ||
		!strings.Contains(outText, "3 done, 0 failed") {
		t.Errorf("summary missing from output:\n%s", outText)
	}
	entries, err := filepath.Glob(filepath.Join(out, "*.result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("store holds %d result docs, want 3", len(entries))
	}
	for _, path := range entries {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pslocal.ReadResult(f)
		f.Close()
		if err != nil {
			t.Errorf("%s does not parse as a result document: %v", filepath.Base(path), err)
		} else if res.TotalColors == 0 {
			t.Errorf("%s degenerate: %+v", filepath.Base(path), res)
		}
	}

	// A second run over the same store dedupes onto the persisted jobs
	// instead of re-solving.
	buf.Reset()
	if err := runBatch(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("second runBatch: %v\n%s", err, buf.String())
	}
	// The summary counts this batch's outcomes, so a fully-deduped rerun
	// still reports its jobs as done.
	if !strings.Contains(buf.String(), "3 done, 0 failed") || !strings.Contains(buf.String(), "3 deduped") {
		t.Errorf("second run summary wrong:\n%s", buf.String())
	}
}

// TestDefaultSweepDedupesServeSubmission sweeps a directory with the
// default flags into a store, then submits one swept body over that
// store with the parameters cfserve fills in for a default /v1/jobs
// request: it must dedupe onto the swept job instead of running again.
func TestDefaultSweepDedupesServeSubmission(t *testing.T) {
	dir := t.TempDir()
	out := t.TempDir()
	files := writeInstances(t, dir)
	cfg, _, err := parseFlags([]string{"-dir", dir, "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runBatch(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("runBatch: %v\n%s", err, buf.String())
	}
	jm, err := pslocal.NewJobManager(pslocal.JobConfig{Dir: out, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer jm.Close()
	label := filepath.Base(files[0])
	swept := jm.List(pslocal.JobFilter{Label: label})
	if len(swept) != 1 {
		t.Fatalf("store holds %d jobs labelled %s, want 1", len(swept), label)
	}
	body, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	info, accepted, err := jm.Submit(pslocal.JobRequest{
		Body:   body,
		Params: pslocal.JobParams{K: 3, Oracle: "implicit", Seed: 1, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if accepted || info.ID != swept[0].ID {
		t.Errorf("submit: id %s accepted=%v, want the swept job %s deduped", info.ID, accepted, swept[0].ID)
	}
}

// TestRunBatchReportsFailures keeps the batch going past a bad instance
// and exits non-zero.
func TestRunBatchReportsFailures(t *testing.T) {
	dir := t.TempDir()
	writeInstances(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "broken.hg"), []byte("hypergraph 2 nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := batchConfig{dir: dir, glob: "*", workers: 2,
		priority: pslocal.JobPriorityNormal, params: pslocal.JobParams{K: 2}}
	err := runBatch(context.Background(), cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), "1 of 4 jobs failed") {
		t.Fatalf("error = %v, want the failure tally\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "failed") || !strings.Contains(buf.String(), "broken.hg") {
		t.Errorf("per-job failure line missing:\n%s", buf.String())
	}
}

// TestRunBatchHonoursContext aborts a sweep through its context.
func TestRunBatchHonoursContext(t *testing.T) {
	dir := t.TempDir()
	writeInstances(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	cfg := batchConfig{dir: dir, glob: "*", workers: 1, priority: pslocal.JobPriorityNormal,
		params: pslocal.JobParams{K: 2}}
	if err := runBatch(ctx, cfg, &buf); err == nil {
		t.Error("cancelled batch reported success")
	}
}
