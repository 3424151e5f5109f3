// Package obs is the dependency-free observability substrate shared by
// every binary: a metrics registry (counters, gauges, log2 latency
// histograms) with a Prometheus text-format exposition handler, a
// lightweight span-tracing API threaded through the solver, and the
// request-id propagation contract of the cluster. It imports nothing
// outside the standard library and nothing from the rest of the module,
// so every layer — core, solver, jobs, cluster, the commands — can
// depend on it without cycles.
//
// The registry is registration-then-serve: families and series are
// registered once at construction time (misuse panics — a duplicate
// series or a kind clash is a programmer error, not a runtime
// condition), and afterwards Counter/Gauge/Histogram handles are
// lock-free on the hot path. GET /metrics is the one surface a server's
// numbers are published on; ParseExposition (expo.go) reads it back for
// every in-repo consumer.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "endpoint", Value: "reduce"}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// seriesKind discriminates what one registered series renders as.
type seriesKind int

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindHistogram
)

// promType is the TYPE line spelling per kind.
func (k seriesKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance inside a family; exactly one of the
// value fields is set.
type series struct {
	labels string // pre-rendered `k1="v1",k2="v2"`, "" when unlabeled
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups the series sharing one metric name: the unit of HELP and
// TYPE in the exposition.
type family struct {
	name   string
	help   string
	kind   seriesKind
	series []*series
}

// Registry holds metric families in registration order. Registration
// (the Counter/Gauge/Histogram constructors) locks; reading handles and
// observing into them is lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	bySeries map[string]bool // name + rendered labels, duplicate guard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family), bySeries: make(map[string]bool)}
}

// validMetricName follows the Prometheus data model: [a-zA-Z_:] first,
// [a-zA-Z0-9_:] after.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName is validMetricName without the colon.
func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, `\"`+"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels canonicalizes a label set: sorted by key, escaped, joined
// with commas. Registration-time only.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if l.Key == "le" {
			panic(`obs: label name "le" is reserved for histogram buckets`)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// register adds a series under name, creating the family on first use.
// Panics on an invalid name, a kind clash with an existing family, a
// help clash, or a duplicate (name, labels) series.
func (r *Registry) register(name, help string, kind seriesKind, s *series, labels []Label) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind.promType(), kind.promType()))
	}
	key := name + "{" + s.labels + "}"
	if r.bySeries[key] {
		panic(fmt.Sprintf("obs: duplicate series %s", key))
	}
	r.bySeries[key] = true
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := new(Counter)
	r.register(name, help, kindCounter, &series{c: c}, labels)
	return c
}

// CounterFunc registers a counter series rendered by calling fn at
// exposition time — the bridge for monotonic counts that already live
// elsewhere (cache stats, job lifecycle counters). fn must be safe for
// concurrent use and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, &series{fn: fn}, labels)
}

// Gauge registers and returns a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := new(Gauge)
	r.register(name, help, kindGauge, &series{g: g}, labels)
	return g
}

// GaugeFunc registers a gauge series rendered by calling fn at
// exposition time (in-flight counts, queue depths). fn must be safe for
// concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{fn: fn}, labels)
}

// Histogram registers and returns a log2 latency histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := new(Histogram)
	r.register(name, help, kindHistogram, &series{h: h}, labels)
	return h
}

// formatFloat renders a sample value: integers stay integral, everything
// else is shortest-round-trip.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSample emits one `name{labels} value` line; extra is appended to
// the series labels (the histogram's le pair).
func writeSample(w io.Writer, name, labels, extra, value string) error {
	var err error
	switch {
	case labels == "" && extra == "":
		_, err = fmt.Fprintf(w, "%s %s\n", name, value)
	case labels == "":
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, extra, value)
	case extra == "":
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	default:
		_, err = fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, value)
	}
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// with le in seconds (the log2 bucket upper bounds, trimmed past the
// highest occupied bucket), then _sum and _count. The bucket total, not
// the racy sample counter, feeds _count so the cumulative invariant
// holds under concurrent observes.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	counts, total, sumUS := h.expo()
	hi := 0
	for i, c := range counts {
		if c > 0 {
			hi = i
		}
	}
	var cum uint64
	if total > 0 {
		for i := 0; i <= hi; i++ {
			cum += counts[i]
			le := formatFloat(float64(bucketUpperUS(i)) / 1e6)
			if err := writeSample(w, name+"_bucket", labels, `le="`+le+`"`, strconv.FormatUint(cum, 10)); err != nil {
				return err
			}
		}
	}
	if err := writeSample(w, name+"_bucket", labels, `le="+Inf"`, strconv.FormatUint(total, 10)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels, "", formatFloat(float64(sumUS)/1e6)); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels, "", strconv.FormatUint(total, 10))
}

// WritePrometheus renders every family in registration order as
// Prometheus text exposition format 0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	for _, f := range families {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType()); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch {
			case s.h != nil:
				err = writeHistogram(w, f.name, s.labels, s.h)
			case s.c != nil:
				err = writeSample(w, f.name, s.labels, "", strconv.FormatUint(s.c.Value(), 10))
			case s.g != nil:
				err = writeSample(w, f.name, s.labels, "", formatFloat(s.g.Value()))
			case s.fn != nil:
				err = writeSample(w, f.name, s.labels, "", formatFloat(s.fn()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// expositionContentType is the text exposition format version the
// handler advertises (what Prometheus scrapers negotiate on).
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns the GET /metrics handler serving the registry in
// Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", expositionContentType)
		_ = r.WritePrometheus(w)
	})
}
