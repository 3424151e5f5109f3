package loadgen

// loadgen_test.go covers the planning layer: spec validation, the
// deterministic expansion of a spec into a schedule, the statistical
// shape of the arrival samplers, and the instance-reuse mechanism that
// steers the server-side cache-hit ratio.

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// testSpec is a small three-class mixed workload.
func testSpec(seed int64) Spec {
	return Spec{
		Seed:     seed,
		Requests: 200,
		Rate:     1000,
		Arrival:  ArrivalPoisson,
		HitRatio: 0.5,
		Classes: []Class{
			{Name: "reduce-small", Weight: 2, Endpoint: EndpointReduce, Kind: KindHypergraph,
				Gen: "planted", N: 30, M: 12, K: 3, SizeLo: 3, SizeHi: 5,
				Formats: []string{"edgelist", "json"},
				Params:  Params{K: 3, Oracle: "greedy-mindeg", Seed: 1}, SLOMillis: 250},
			{Name: "maxis-gnp", Weight: 1, Endpoint: EndpointMaxIS, Kind: KindGraph,
				Gen: "gnp", N: 40, P: 0.1,
				Formats: []string{"edgelist", "dimacs", "json"},
				Params:  Params{Oracle: "greedy-mindeg", Seed: 1}, SLOMillis: 250},
			{Name: "jobs-planted", Weight: 1, Endpoint: EndpointJobs, Kind: KindHypergraph,
				Gen: "planted", N: 30, M: 12, K: 3, SizeLo: 3, SizeHi: 5,
				Formats: []string{"json"},
				Params:  Params{K: 3, Priority: "high"}, SLOMillis: 100},
		},
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, err := Plan(testSpec(42))
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	b, err := Plan(testSpec(42))
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from the same seed differ")
	}
	c, err := Plan(testSpec(43))
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanScheduleShape(t *testing.T) {
	spec := testSpec(1)
	tr, err := Plan(spec)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(tr.Records) != spec.Requests {
		t.Fatalf("planned %d records, want %d", len(tr.Records), spec.Requests)
	}
	prev := int64(0)
	classes := map[string]int{}
	for i, rec := range tr.Records {
		if rec.Seq != i {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if rec.AtUS < prev {
			t.Fatalf("record %d: arrival %d before predecessor %d", i, rec.AtUS, prev)
		}
		prev = rec.AtUS
		classes[rec.Class]++
	}
	for _, c := range spec.Classes {
		if classes[c.Name] == 0 {
			t.Fatalf("class %q never drawn in %d requests", c.Name, spec.Requests)
		}
	}
	// Mean arrival gap should be near 1/rate = 1ms over 200 samples.
	meanUS := float64(tr.Records[len(tr.Records)-1].AtUS) / float64(len(tr.Records))
	if meanUS < 300 || meanUS > 3000 {
		t.Fatalf("mean inter-arrival %.0fus implausible for rate %.0f/s", meanUS, spec.Rate)
	}
}

func TestPlanHitRatioReuse(t *testing.T) {
	spec := testSpec(5)
	spec.HitRatio = 0.6
	tr, err := Plan(spec)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	firstFormat := map[InstSpec]string{}
	reused := 0
	for _, rec := range tr.Records {
		if f, ok := firstFormat[rec.Inst]; ok {
			reused++
			// A reuse repeats the bytes: same instance, same format.
			if rec.Format != f {
				t.Fatalf("record %d reuses an instance first sent as %s in %s", rec.Seq, f, rec.Format)
			}
			continue
		}
		firstFormat[rec.Inst] = rec.Format
	}
	// Instance reuse converges toward the hit ratio; allow slack for the
	// warmup (early arrivals have nothing to reuse).
	ratio := float64(reused) / float64(len(tr.Records))
	if ratio < 0.35 || ratio > 0.75 {
		t.Fatalf("reuse ratio %.2f not near the configured 0.6", ratio)
	}

	spec.HitRatio = 0
	tr, err = Plan(spec)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	seen := map[InstSpec]bool{}
	for _, rec := range tr.Records {
		if seen[rec.Inst] {
			t.Fatal("hit ratio 0 still reused an instance")
		}
		seen[rec.Inst] = true
	}
}

func TestArrivalSamplerMeans(t *testing.T) {
	const rate = 100.0
	for _, tc := range []struct {
		dist  string
		shape float64
	}{
		{ArrivalPoisson, 1},
		{ArrivalGamma, 0.5},
		{ArrivalGamma, 3},
		{ArrivalWeibull, 0.7},
		{ArrivalWeibull, 2},
	} {
		rng := rand.New(rand.NewSource(99))
		next := arrivalSampler(tc.dist, rate, tc.shape)
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			gap := next(rng)
			if gap < 0 || math.IsNaN(gap) || math.IsInf(gap, 0) {
				t.Fatalf("%s(shape=%v): bad gap %v", tc.dist, tc.shape, gap)
			}
			sum += gap
		}
		mean := sum / n
		if mean < 0.8/rate || mean > 1.2/rate {
			t.Fatalf("%s(shape=%v): mean gap %.5fs, want ~%.5fs", tc.dist, tc.shape, mean, 1/rate)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := testSpec(1)
	mutate := func(f func(*Spec)) Spec {
		s := base
		s.Classes = append([]Class(nil), base.Classes...)
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero requests", mutate(func(s *Spec) { s.Requests = 0 })},
		{"negative rate", mutate(func(s *Spec) { s.Rate = -1 })},
		{"unknown arrival", mutate(func(s *Spec) { s.Arrival = "bursty" })},
		{"hit ratio 1", mutate(func(s *Spec) { s.HitRatio = 1 })},
		{"no classes", mutate(func(s *Spec) { s.Classes = nil })},
		{"zero weight", mutate(func(s *Spec) { s.Classes[0].Weight = 0 })},
		{"unknown endpoint", mutate(func(s *Spec) { s.Classes[0].Endpoint = "warp" })},
		{"reduce with graph", mutate(func(s *Spec) { s.Classes[0].Kind = KindGraph; s.Classes[0].Gen = "gnp" })},
		{"maxis with hypergraph", mutate(func(s *Spec) { s.Classes[1].Kind = KindHypergraph; s.Classes[1].Gen = "planted" })},
		{"hypergraph in dimacs", mutate(func(s *Spec) { s.Classes[0].Formats = []string{"dimacs"} })},
		{"no formats", mutate(func(s *Spec) { s.Classes[0].Formats = nil })},
		{"unknown generator", mutate(func(s *Spec) { s.Classes[0].Gen = "fractal" })},
		{"negative SLO", mutate(func(s *Spec) { s.Classes[0].SLOMillis = -1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Plan(tc.spec); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
	// The dedicated spec error is typed; format errors keep graphio's
	// own taxonomy.
	if _, err := Plan(mutate(func(s *Spec) { s.Requests = 0 })); !errors.Is(err, ErrSpec) {
		t.Fatalf("error %v is not ErrSpec", err)
	}
}

func TestInstSpecBuildDeterministic(t *testing.T) {
	specs := []InstSpec{
		{Kind: KindHypergraph, Gen: "planted", N: 30, M: 12, K: 3, SizeLo: 3, SizeHi: 5, Seed: 9},
		{Kind: KindHypergraph, Gen: "uniform", N: 20, M: 8, SizeLo: 3, Seed: 9},
		{Kind: KindHypergraph, Gen: "interval", N: 20, M: 8, SizeHi: 4, Seed: 9},
		{Kind: KindHypergraph, Gen: "star", N: 20, M: 4, SizeLo: 3, Seed: 9},
		{Kind: KindGraph, Gen: "gnp", N: 30, P: 0.2, Seed: 9},
		{Kind: KindGraph, Gen: "grid", N: 4, M: 5, Seed: 9},
		{Kind: KindGraph, Gen: "cycle", N: 10, Seed: 9},
		{Kind: KindGraph, Gen: "tree", N: 15, Seed: 9},
	}
	for _, s := range specs {
		formats := []string{"edgelist", "json"}
		if s.Kind == KindGraph {
			formats = append(formats, "dimacs")
		}
		for _, f := range formats {
			a, err := s.Build(f)
			if err != nil {
				t.Fatalf("%s/%s in %s: %v", s.Kind, s.Gen, f, err)
			}
			b, err := s.Build(f)
			if err != nil {
				t.Fatalf("%s/%s in %s: %v", s.Kind, s.Gen, f, err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s/%s in %s: two builds differ", s.Kind, s.Gen, f)
			}
			if len(a) == 0 {
				t.Fatalf("%s/%s in %s: empty body", s.Kind, s.Gen, f)
			}
		}
	}
}
