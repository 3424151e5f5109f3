package obs

// expo.go reads the text exposition format (0.0.4) back: the one parser
// behind every in-repo reader of a server's numbers — the metricscheck
// validator, cfload's job-split probe and the tests. It checks what a
// scraper relies on before returning any sample: HELP/TYPE syntax, a
// TYPE before every sample, no duplicate series or re-typed families,
// histogram buckets cumulative in le with a +Inf bucket equal to
// _count, no negative counters, and no le label off a histogram.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one sample line of an exposition.
type Sample struct {
	// Name is the sample's metric name, histogram suffix included
	// (name_bucket, name_sum, name_count).
	Name string
	// Family is the metric family the sample belongs to: Name, or the
	// histogram's name for its _bucket, _sum and _count samples.
	Family string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed, validated text exposition.
type Exposition struct {
	// Samples holds every sample in document order.
	Samples []Sample
	// Types maps each family to its TYPE (counter, gauge, histogram,
	// summary or untyped).
	Types map[string]string
	// HistogramSeries counts the histogram series: one per histogram
	// family and label set, le aside.
	HistogramSeries int
}

// Value returns the value of the sample called name whose label set is
// exactly labels, and whether the exposition has one.
func (e *Exposition) Value(name string, labels ...Label) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for _, l := range labels {
			if v, ok := s.Labels[l.Key]; !ok || v != l.Value {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// bucketSeries accumulates one histogram series' buckets for the
// cumulativity check.
type bucketSeries struct {
	les    []float64
	counts []float64
	count  float64 // the _count sample
	hasCnt bool
}

// ParseExposition reads a text-format exposition and validates it; the
// error names the first line (or histogram series) that breaks a rule.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string)}
	helped := make(map[string]bool) // family -> HELP seen
	seen := make(map[string]int)    // series key -> first line
	hists := make(map[string]*bucketSeries)
	var histOrder []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			if len(fields) < 3 || !validMetricName(fields[2]) {
				return nil, fmt.Errorf("line %d: malformed %s line: %q", line, fields[1], text)
			}
			name := fields[2]
			if fields[1] == "HELP" {
				if helped[name] {
					return nil, fmt.Errorf("line %d: second HELP for %s", line, name)
				}
				helped[name] = true
				continue
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: TYPE wants exactly 'TYPE name kind': %q", line, text)
			}
			kind := fields[3]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", line, kind, name)
			}
			if prev, ok := e.Types[name]; ok && prev != kind {
				return nil, fmt.Errorf("line %d: %s re-typed from %s to %s", line, name, prev, kind)
			}
			e.Types[name] = kind
			continue
		}
		s, err := parseSample(text, line)
		if err != nil {
			return nil, err
		}
		key := seriesKey(s.Name, s.Labels)
		if first, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s (first at line %d)", line, key, first)
		}
		seen[key] = line

		s.Family = s.Name
		if base, sfx := histogramBase(s.Name); base != "" && e.Types[base] == "histogram" {
			s.Family = base
			// Key the histogram series by its labels minus le.
			le, hasLE := s.Labels["le"]
			rest := make(map[string]string, len(s.Labels))
			for k, v := range s.Labels {
				if k != "le" {
					rest[k] = v
				}
			}
			hkey := seriesKey(base, rest)
			hs := hists[hkey]
			if hs == nil {
				hs = &bucketSeries{}
				hists[hkey] = hs
				histOrder = append(histOrder, hkey)
			}
			switch sfx {
			case "_bucket":
				if !hasLE {
					return nil, fmt.Errorf("line %d: histogram bucket without an le label: %s", line, text)
				}
				bound, err := parseLE(le)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", line, err)
				}
				hs.les = append(hs.les, bound)
				hs.counts = append(hs.counts, s.Value)
			case "_count":
				hs.count = s.Value
				hs.hasCnt = true
			}
		} else if _, ok := s.Labels["le"]; ok && e.Types[s.Name] != "histogram" {
			return nil, fmt.Errorf("line %d: le label on non-histogram series %s", line, s.Name)
		}
		if t, ok := e.Types[s.Family]; !ok {
			return nil, fmt.Errorf("line %d: sample %s has no preceding TYPE", line, s.Name)
		} else if t == "counter" && s.Value < 0 {
			return nil, fmt.Errorf("line %d: negative counter sample %s = %g", line, s.Name, s.Value)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Histogram invariants: a +Inf bucket per series, bucket counts
	// non-decreasing in le order, +Inf equal to _count.
	for _, hkey := range histOrder {
		hs := hists[hkey]
		if len(hs.les) == 0 {
			return nil, fmt.Errorf("histogram %s has no buckets", hkey)
		}
		type pair struct{ le, n float64 }
		pairs := make([]pair, len(hs.les))
		for i := range hs.les {
			pairs[i] = pair{hs.les[i], hs.counts[i]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].le < pairs[j].le })
		last := pairs[len(pairs)-1]
		if !math.IsInf(last.le, 1) {
			return nil, fmt.Errorf("histogram %s is missing its +Inf bucket", hkey)
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i].n < pairs[i-1].n {
				return nil, fmt.Errorf("histogram %s buckets not cumulative: le=%g count %g < le=%g count %g",
					hkey, pairs[i].le, pairs[i].n, pairs[i-1].le, pairs[i-1].n)
			}
		}
		if hs.hasCnt && last.n != hs.count {
			return nil, fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", hkey, last.n, hs.count)
		}
	}
	e.HistogramSeries = len(hists)
	return e, nil
}

// parseLabels parses the `k="v",...` interior of a label block,
// honouring the \\, \" and \n escapes.
func parseLabels(s string, line int) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("line %d: label block %q: missing '='", line, s)
		}
		key := s[i : i+eq]
		if !validLabelName(key) {
			return nil, fmt.Errorf("line %d: invalid label name %q", line, key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("line %d: label %q value is not quoted", line, key)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("line %d: dangling escape in label %q", line, key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("line %d: bad escape \\%c in label %q", line, s[i+1], key)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("line %d: unterminated label value for %q", line, key)
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate label %q", line, key)
		}
		labels[key] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("line %d: expected ',' between labels, got %q", line, s[i:])
			}
			i++
		}
	}
	return labels, nil
}

// parseSample parses one non-comment line.
func parseSample(text string, line int) (Sample, error) {
	var s Sample
	rest := text
	if brace := strings.IndexByte(text, '{'); brace >= 0 {
		s.Name = text[:brace]
		end := strings.LastIndexByte(text, '}')
		if end < brace {
			return s, fmt.Errorf("line %d: unbalanced label braces", line)
		}
		var err error
		if s.Labels, err = parseLabels(text[brace+1:end], line); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(text[end+1:])
	} else {
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return s, fmt.Errorf("line %d: want 'name value', got %q", line, text)
		}
		s.Name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("line %d: invalid metric name %q", line, s.Name)
	}
	// The value may be followed by an optional timestamp; take field one.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("line %d: want 'value [timestamp]' after the name, got %q", line, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("line %d: bad sample value %q", line, fields[0])
	}
	s.Value = v
	return s, nil
}

// seriesKey canonicalizes name + labels for duplicate detection.
func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// histogramBase splits a histogram sample name into its family name and
// suffix, or returns "" when the name carries no histogram suffix.
func histogramBase(name string) (base, suffix string) {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, sfx) {
			return strings.TrimSuffix(name, sfx), sfx
		}
	}
	return "", ""
}

// parseLE parses a bucket bound ("+Inf" or a float).
func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le value %q", s)
	}
	return v, nil
}
