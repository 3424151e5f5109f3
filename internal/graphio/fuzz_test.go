package graphio

// fuzz_test.go backs the round-trip encoders with fuzzing: any input the
// readers accept must re-encode and re-parse to the identical structure,
// and no input may panic the parser. FuzzEdgeListFields holds the byte
// tokenizer and number parsers to the string versions they replaced.
// `go test` runs the seed corpus;
// `go test -fuzz=FuzzReadGraph ./internal/graphio` explores further.

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pslocal/internal/graph"
)

func FuzzReadGraph(f *testing.F) {
	f.Add("graph 3 2\n0 1\n1 2\n")
	f.Add("graph 0 0\n")
	f.Add("# comment\ngraph 4 1\n2 3\n")
	f.Add("p edge 3 2\ne 1 2\ne 2 3\n")
	f.Add("c comment\np edge 5 0\n")
	f.Add(`{"type":"graph","n":3,"edges":[[0,1],[1,2]]}`)
	f.Add(`{"n":2,"edges":[[0,1]]}`)
	f.Add("graph 2 1\n0 5000000000\n")
	f.Add("p edge 2 2\ne 1 2\ne 2 1\n")
	f.Add(`{"type":"graph","n":1,"edges":[[0,0]]}`)
	f.Add("graph 3 1\nv 0 7\nv 2 2147483647\n0 1\n")
	f.Add("graph 2 0\nv 0 -1\n")
	f.Add("p edge 3 1\nn 1 5\nn 3 9\ne 1 2\n")
	f.Add("p edge 2 0\nn 1 99999999999999999999\n")
	f.Add(`{"type":"graph","n":3,"edges":[[0,1]],"weights":[4,1,9]}`)
	f.Add(`{"type":"graph","n":3,"edges":[],"weights":[1,2]}`)
	f.Fuzz(func(t *testing.T, input string) {
		for _, format := range []Format{FormatAuto, FormatEdgeList, FormatDIMACS, FormatJSON} {
			g, err := ReadGraph(strings.NewReader(input), format)
			if err != nil {
				continue // malformed input must error, not panic
			}
			// A successful parse must round-trip identically through
			// every writable format.
			for _, out := range []Format{FormatEdgeList, FormatDIMACS, FormatJSON} {
				var buf bytes.Buffer
				if err := WriteGraph(&buf, g, out); err != nil {
					t.Fatalf("format %v: write after successful parse: %v", out, err)
				}
				got, err := ReadGraph(bytes.NewReader(buf.Bytes()), out)
				if err != nil {
					t.Fatalf("format %v: reparse of own output: %v\n%s", out, err, buf.String())
				}
				if !graph.Equal(g, got) {
					t.Fatalf("format %v: round trip changed the graph", out)
				}
			}
		}
	})
}

func FuzzReadHypergraph(f *testing.F) {
	f.Add("hypergraph 4 2\n0 1 2\n2 3\n")
	f.Add("hypergraph 1 1\n0\n")
	f.Add(`{"type":"hypergraph","n":4,"edges":[[0,1,2],[2,3]]}`)
	f.Add(`{"n":3,"edges":[[0,1],[1,2,0]]}`)
	f.Add("hypergraph 2 1\n0 0 1\n")
	f.Add(`{"type":"hypergraph","n":3,"edges":[[]]}`)
	f.Add("hypergraph 4 1\nv 1 12\nv 3 3\n0 1 2\n")
	f.Add("hypergraph 2 0\nv 0 two\n")
	f.Add(`{"type":"hypergraph","n":3,"edges":[[0,1]],"weights":[5,1,2]}`)
	f.Add(`{"type":"hypergraph","n":2,"edges":[],"weights":[1,-4]}`)
	f.Fuzz(func(t *testing.T, input string) {
		for _, format := range []Format{FormatAuto, FormatEdgeList, FormatJSON} {
			h, err := ReadHypergraph(strings.NewReader(input), format)
			if err != nil {
				continue
			}
			for _, out := range []Format{FormatEdgeList, FormatJSON} {
				var buf bytes.Buffer
				if err := WriteHypergraph(&buf, h, out); err != nil {
					t.Fatalf("format %v: write after successful parse: %v", out, err)
				}
				got, err := ReadHypergraph(bytes.NewReader(buf.Bytes()), out)
				if err != nil {
					t.Fatalf("format %v: reparse of own output: %v\n%s", out, err, buf.String())
				}
				if got.N() != h.N() || !reflect.DeepEqual(got.Edges(), h.Edges()) ||
					!reflect.DeepEqual(got.Weights(), h.Weights()) {
					t.Fatalf("format %v: round trip changed the hypergraph", out)
				}
			}
		}
	})
}

// splitEdgeListLineRef is the string tokenizer the byte one replaced.
func splitEdgeListLineRef(line string) []string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.Fields(line)
}

// parseVertexRef is the string id parser the byte one replaced.
func parseVertexRef(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			return 0, fmt.Errorf("vertex id %q overflows int32", s)
		}
		return 0, fmt.Errorf("bad vertex id %q", s)
	}
	return int32(v), nil
}

// parseWeightRef is the string weight parser the byte one replaced.
func parseWeightRef(s string) (int64, error) {
	w, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			return 0, fmt.Errorf("weight %q overflows int64", s)
		}
		return 0, fmt.Errorf("bad weight %q", s)
	}
	return w, nil
}

// sameParse fails t unless two parses agree on the value or, failing,
// on the error text.
func sameParse[T comparable](t *testing.T, what, in string, got, want T, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && got != want) {
		t.Fatalf("%s(%q) = %v, %v; want %v, %v", what, in, got, gotErr, want, wantErr)
	}
}

func FuzzEdgeListFields(f *testing.F) {
	for _, line := range []string{
		"0 1", "\v0\v1\v", "0\f1", "0 1\r", "2\u00853", "4\u00a05", "6\u30007",
		"+5 -0", "007 8", "2147483648 0", "-2147483649", "0 1 # 2 3", "#",
		"1234567890123456789012345678901234567890 1", "v 3 -9223372036854775808",
		"5000000000x", "3000000000x", "+", "- 1", "\xc2 1\xff", "\u2028\u205f",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		want := splitEdgeListLineRef(line)
		got := splitEdgeListLine(nil, []byte(line))
		if len(got) != len(want) {
			t.Fatalf("splitEdgeListLine(%q) = %q, want %q", line, got, want)
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Fatalf("splitEdgeListLine(%q) = %q, want %q", line, got, want)
			}
		}
		if got, want := appendFields(nil, []byte(line)), strings.Fields(line); fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Fatalf("appendFields(%q) = %q, want %q", line, got, want)
		}
		for _, s := range append(want, line) {
			v, err := parseVertex([]byte(s))
			wv, werr := parseVertexRef(s)
			sameParse(t, "parseVertex", s, v, wv, err, werr)
			w, err := parseWeight([]byte(s))
			ww, werr := parseWeightRef(s)
			sameParse(t, "parseWeight", s, w, ww, err, werr)
			// The header counts went through strconv.Atoi.
			n, err := parseInt([]byte(s), strconv.IntSize)
			wn, werr := strconv.Atoi(s)
			if (err == nil) != (werr == nil) || (err == nil && int(n) != wn) {
				t.Fatalf("parseInt(%q) = %d, %v; Atoi = %d, %v", s, n, err, wn, werr)
			}
		}
	})
}
