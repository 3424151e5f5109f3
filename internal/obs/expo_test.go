package obs

// expo_test.go covers the exposition reader: a populated registry's own
// output parses back to every series' value, and each validation rule
// rejects a malformed exposition with its error text.

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_requests_total", "Requests.").Add(42)
	r.Counter("rt_solves_total", "Solves.", L("endpoint", "reduce")).Add(3)
	r.Counter("rt_solves_total", "Solves.", L("endpoint", "maxis")).Inc()
	r.Gauge("rt_inflight", "In flight.").Set(2.5)
	r.GaugeFunc("rt_queue_depth", "Queue depth.", func() float64 { return 7 })
	r.CounterFunc("rt_wait_seconds_total", "Wait.", func() float64 { return 0.125 })
	odd := `back\slash "quoted"` + "\nnewline"
	r.Gauge("rt_info", "Info.", L("path", odd), L("b", "2")).Set(1)
	h := r.Histogram("rt_latency_seconds", "Latency.", L("track", "reduce"))
	obsUS := []int64{1000, 3000}
	for _, us := range obsUS {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	r.Histogram("rt_latency_seconds", "Latency.", L("track", "idle"))

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("registry output rejected: %v\n%s", err, sb.String())
	}

	for _, tc := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"rt_requests_total", nil, 42},
		{"rt_solves_total", []Label{L("endpoint", "reduce")}, 3},
		{"rt_solves_total", []Label{L("endpoint", "maxis")}, 1},
		{"rt_inflight", nil, 2.5},
		{"rt_queue_depth", nil, 7},
		{"rt_wait_seconds_total", nil, 0.125},
		{"rt_info", []Label{L("b", "2"), L("path", odd)}, 1},
		{"rt_latency_seconds_count", []Label{L("track", "reduce")}, 2},
		{"rt_latency_seconds_sum", []Label{L("track", "reduce")}, 0.004},
		{"rt_latency_seconds_bucket", []Label{L("track", "reduce"), L("le", "+Inf")}, 2},
		{"rt_latency_seconds_count", []Label{L("track", "idle")}, 0},
		{"rt_latency_seconds_bucket", []Label{L("track", "idle"), L("le", "+Inf")}, 0},
	} {
		got, ok := e.Value(tc.name, tc.labels...)
		if !ok || got != tc.want {
			t.Errorf("%s%v = %v (found %t), want %v", tc.name, tc.labels, got, ok, tc.want)
		}
	}
	// A label subset or superset is a different series.
	if _, ok := e.Value("rt_info", L("b", "2")); ok {
		t.Error("Value matched a sample on a subset of its labels")
	}
	if _, ok := e.Value("rt_latency_seconds_count"); ok {
		t.Error("Value matched a labelled sample with no labels")
	}

	// Every sample is accounted for: each finite bucket holds the
	// observations at or under its bound, and every sample carries its
	// family and that family's type.
	buckets := 0
	for _, s := range e.Samples {
		if s.Name == "rt_latency_seconds_bucket" && s.Labels["track"] == "reduce" && s.Labels["le"] != "+Inf" {
			buckets++
			var want float64
			for _, us := range obsUS {
				if le, _ := parseLE(s.Labels["le"]); float64(us) <= math.Round(le*1e6) {
					want++
				}
			}
			if s.Value != want {
				t.Errorf("bucket le=%s = %v, want %v", s.Labels["le"], s.Value, want)
			}
		}
		wantFamily := s.Name
		if strings.HasPrefix(s.Name, "rt_latency_seconds_") {
			wantFamily = "rt_latency_seconds"
		}
		if s.Family != wantFamily || e.Types[s.Family] == "" {
			t.Errorf("sample %s: family %q (type %q), want %q", s.Name, s.Family, e.Types[s.Family], wantFamily)
		}
	}
	if buckets == 0 {
		t.Error("no finite buckets parsed")
	}
	if len(e.Samples) != 7+buckets+3+3 {
		t.Errorf("parsed %d samples, want %d", len(e.Samples), 7+buckets+3+3)
	}
	if e.HistogramSeries != 2 {
		t.Errorf("histogram series = %d, want 2", e.HistogramSeries)
	}
	for family, want := range map[string]string{
		"rt_requests_total": "counter", "rt_wait_seconds_total": "counter",
		"rt_inflight": "gauge", "rt_queue_depth": "gauge", "rt_latency_seconds": "histogram",
	} {
		if got := e.Types[family]; got != want {
			t.Errorf("type of %s = %q, want %q", family, got, want)
		}
	}
}

func TestParseExpositionRejects(t *testing.T) {
	const hist = "# TYPE h histogram\n"
	for _, tc := range []struct {
		name, text, err string
	}{
		{"HELP without a name", "# HELP\n",
			`line 1: malformed HELP line: "# HELP"`},
		{"TYPE with a bad name", "# TYPE 1bad counter\n",
			`line 1: malformed TYPE line: "# TYPE 1bad counter"`},
		{"TYPE without a kind", "# TYPE foo\n",
			`line 1: TYPE wants exactly 'TYPE name kind': "# TYPE foo"`},
		{"unknown TYPE", "# TYPE foo bogus\n",
			`line 1: unknown TYPE "bogus" for foo`},
		{"second HELP", "# HELP foo a\n# HELP foo b\n",
			`line 2: second HELP for foo`},
		{"sample before its TYPE", "foo 1\n",
			`line 1: sample foo has no preceding TYPE`},
		{"duplicate series", "# TYPE foo counter\nfoo{a=\"1\"} 1\nfoo{a=\"1\"} 2\n",
			`line 3: duplicate series foo{a="1"} (first at line 2)`},
		{"re-typed family", "# TYPE foo counter\n# TYPE foo gauge\n",
			`line 2: foo re-typed from counter to gauge`},
		{"buckets not cumulative", hist + "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			`histogram h{} buckets not cumulative: le=2 count 3 < le=1 count 5`},
		{"+Inf bucket differs from _count", hist + "h_bucket{le=\"+Inf\"} 4\nh_count 5\n",
			`histogram h{}: +Inf bucket 4 != _count 5`},
		{"no +Inf bucket", hist + "h_bucket{le=\"1\"} 1\nh_count 1\n",
			`histogram h{} is missing its +Inf bucket`},
		{"histogram without buckets", hist + "h_count 1\n",
			`histogram h{} has no buckets`},
		{"bucket without le", hist + "h_bucket 1\n",
			`line 2: histogram bucket without an le label: h_bucket 1`},
		{"bad le", hist + "h_bucket{le=\"x\"} 1\n",
			`line 2: bad le value "x"`},
		{"negative counter", "# TYPE c counter\nc -1\n",
			`line 2: negative counter sample c = -1`},
		{"le on a non-histogram", "# TYPE g gauge\ng{le=\"1\"} 1\n",
			`line 2: le label on non-histogram series g`},
		{"bad value", "# TYPE g gauge\ng abc\n",
			`line 2: bad sample value "abc"`},
		{"name without value", "# TYPE g gauge\ng\n",
			`line 2: want 'name value', got "g"`},
		{"bad metric name", "# TYPE g gauge\n1g 1\n",
			`line 2: invalid metric name "1g"`},
		{"bad escape", "# TYPE g gauge\ng{a=\"\\x\"} 1\n",
			`line 2: bad escape \x in label "a"`},
		{"unquoted label", "# TYPE g gauge\ng{a=1} 1\n",
			`line 2: label "a" value is not quoted`},
		{"unterminated label", "# TYPE g gauge\ng{a=\"1} 1\n",
			`line 2: unterminated label value for "a"`},
		{"duplicate label", "# TYPE g gauge\ng{a=\"1\",a=\"2\"} 1\n",
			`line 2: duplicate label "a"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseExposition(strings.NewReader(tc.text))
			if err == nil || err.Error() != tc.err {
				t.Fatalf("error = %v, want %q", err, tc.err)
			}
		})
	}
}
