package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

const (
	testOpen   = 2 * time.Second
	testClosed = time.Second
)

func mustPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	wl, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(wl, seed, testOpen, testClosed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSameSeedSameScheduleAndBodies(t *testing.T) {
	for _, wl := range workloads() {
		a, b := mustPlan(t, wl.name, 7), mustPlan(t, wl.name, 7)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 planned twice gives different sequences", wl.name)
		}
		if len(a.open) != len(b.open) || a.open[len(a.open)-1].at != b.open[len(b.open)-1].at {
			t.Errorf("%s: seed 7 planned twice gives different schedules", wl.name)
		}
		if c := mustPlan(t, wl.name, 8); c.digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", wl.name)
		}
	}
}

func TestHotWorkloadsSendIdenticalSequences(t *testing.T) {
	if mustPlan(t, "hot-direct", 3).digest() != mustPlan(t, "hot-gateway", 3).digest() {
		t.Fatal("hot-direct and hot-gateway sequences differ")
	}
}

func TestColdSequenceNeverRevisitsACachedBody(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		wl, _ := lookupWorkload("cold-direct")
		// Full-length run: the reuse distance only shrinks as runs grow.
		p, err := buildPlan(wl, seed, 40*time.Second, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.coldReuseCheck(coldReuseMargin); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestTailRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if _, err := quantile(sample(999), 0.99); err == nil {
		t.Error("p99 of 999 samples reported; it has only 9 beyond it")
	}
	if v, err := quantile(sample(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := quantile(sample(99), 0.90); err == nil {
		t.Error("p90 of 99 samples reported")
	}
	if v := tailOrLower(sample(100), 0.99); v != 90 {
		t.Errorf("per-layer p99 of 1..100 = %v, want 90 (ten samples beyond)", v)
	}
}

func TestBodyStoreIgnoresOnlyElapsed(t *testing.T) {
	r := &request{path: "/v1/maxis", inst: &instance{}}
	store := newBodyStore()
	outs := []outcome{
		{req: r, status: 200, body: []byte(`{"size": 1, "elapsed_ms": 0.25, "x": 1}`)},
		{req: r, status: 200, body: []byte(`{"size": 1, "elapsed_ms": 12.5, "x": 1}`)},
		{req: r, status: 200, body: []byte(`{"size": 2, "elapsed_ms": 0.25, "x": 1}`)},
	}
	for i := range outs {
		store.add(&outs[i])
	}
	if outs[0].key != outs[1].key || outs[0].key == outs[2].key {
		t.Fatal("store keys must differ exactly when more than elapsed_ms differs")
	}
	if outs[1].elapsedMS != 12.5 || len(store.bodies) != 2 {
		t.Fatalf("elapsed %v, %d stored bodies; want 12.5 and 2", outs[1].elapsedMS, len(store.bodies))
	}
}

// benchmarkSpec is the part of BENCHMARK.json the command must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var got, want []string
	for _, wl := range workloads() {
		got = append(got, wl.name)
	}
	for _, w := range loadSpec(t).Workloads {
		want = append(want, w.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
		}
	}
}

// buildServers builds cfserve and cfgate from the module this benchmark
// replaces pslocal with.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "pslocal/cmd/cfserve", "pslocal/cmd/cfgate")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building servers: %v\n%s", err, out)
	}
	return dir
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmokeTracedRuns runs every workload briefly in traced mode, which
// exercises the live phases, every answer check, every self-check and the
// replay with its core.Reduce identity check, and compares the reported
// metrics with BENCHMARK.json.
func TestSmokeTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildServers(t)
	spec := loadSpec(t)
	for _, wl := range workloads() {
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(context.Background(), options{workload: wl.name, seed: 5, seconds: 3, trace: true, binDir: bin}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("reported %v, BENCHMARK.json lists %d per-layer metrics", metricNames(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// TestEndToEndRefusesThinSample feeds the metric step a run too small for
// its median: the run must fail rather than report it.
func TestEndToEndRefusesThinSample(t *testing.T) {
	p := mustPlan(t, "hot-direct", 1)
	lr := &liveRun{closedDur: time.Second, jobs: map[string]jobEnvelope{}}
	for _, r := range p.open[:15] {
		lr.open = append(lr.open, outcome{req: r, status: 200, latency: time.Millisecond})
	}
	lr.openAns = make([]answer, len(lr.open))
	lr.openFail = make([]error, len(lr.open))
	if _, _, err := endToEnd(p, lr); !errors.Is(err, errTail) {
		t.Fatalf("endToEnd error %v, want errTail", err)
	}
}

// TestSmokeUntracedRun checks the end-to-end metric set on a run long
// enough for every reported percentile.
func TestSmokeUntracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildServers(t)
	spec := loadSpec(t)
	res, err := run(context.Background(), options{workload: "hot-direct", seed: 5, seconds: 5, binDir: bin}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("hot-direct run not correct")
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
		if got.Value == 0 {
			t.Errorf("end-to-end %s reads 0", m.Name)
		}
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("reported %v, BENCHMARK.json lists %d end-to-end metrics", metricNames(res.Metrics), len(spec.EndToEnd))
	}
}
