package graphio

// fuzz_test.go backs the readers with fuzzing: any input the readers
// accept must re-encode and re-parse to the identical structure, and no
// input may panic the parser. FuzzEdgeListFields holds the text scanner
// and number parsers to bufio.Scanner, strings.Fields and strconv, and
// FuzzReadMatchesReference holds the in-place readers to the streaming
// readers they replaced (ref_test.go).
// `go test` runs the seed corpus;
// `go test -fuzz=FuzzReadGraph ./internal/graphio` explores further.

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// graphSeeds seed FuzzReadGraph and FuzzReadMatchesReference.
var graphSeeds = []string{
	"graph 3 2\n0 1\n1 2\n",
	"graph 0 0\n",
	"# comment\ngraph 4 1\n2 3\n",
	"p edge 3 2\ne 1 2\ne 2 3\n",
	"c comment\np edge 5 0\n",
	`{"type":"graph","n":3,"edges":[[0,1],[1,2]]}`,
	`{"n":2,"edges":[[0,1]]}`,
	"graph 2 1\n0 5000000000\n",
	"p edge 2 2\ne 1 2\ne 2 1\n",
	`{"type":"graph","n":1,"edges":[[0,0]]}`,
	"graph 3 1\nv 0 7\nv 2 2147483647\n0 1\n",
	"graph 2 0\nv 0 -1\n",
	"p edge 3 1\nn 1 5\nn 3 9\ne 1 2\n",
	"p edge 2 0\nn 1 99999999999999999999\n",
	`{"type":"graph","n":3,"edges":[[0,1]],"weights":[4,1,9]}`,
	`{"type":"graph","n":3,"edges":[],"weights":[1,2]}`,
}

// hypergraphSeeds seed FuzzReadHypergraph and FuzzReadMatchesReference.
var hypergraphSeeds = []string{
	"hypergraph 4 2\n0 1 2\n2 3\n",
	"hypergraph 1 1\n0\n",
	`{"type":"hypergraph","n":4,"edges":[[0,1,2],[2,3]]}`,
	`{"n":3,"edges":[[0,1],[1,2,0]]}`,
	"hypergraph 2 1\n0 0 1\n",
	`{"type":"hypergraph","n":3,"edges":[[]]}`,
	"hypergraph 4 1\nv 1 12\nv 3 3\n0 1 2\n",
	"hypergraph 2 0\nv 0 two\n",
	`{"type":"hypergraph","n":3,"edges":[[0,1]],"weights":[5,1,2]}`,
	`{"type":"hypergraph","n":2,"edges":[],"weights":[1,-4]}`,
}

// fieldSeeds seed FuzzEdgeListFields and FuzzReadMatchesReference: one-line
// bodies first, then multi-line ones with CRLF endings, lone CRs, NUL
// bytes (which no format treats as a comment) and no final newline, then
// numbers whose last digit wraps uint64.
var fieldSeeds = []string{
	"0 1", "\v0\v1\v", "0\f1", "0 1\r", "2\u00853", "4\u00a05", "6\u30007",
	"+5 -0", "007 8", "2147483648 0", "-2147483649", "0 1 # 2 3", "#",
	"1234567890123456789012345678901234567890 1", "v 3 -9223372036854775808",
	"5000000000x", "3000000000x", "+", "- 1", "\xc2 1\xff", "\u2028\u205f",
	"graph 3 2\r\n0 1\r\n1 2\r\n", "0\x001 2\r\n\r\n#\x00\n3 4", "\n\n", "\r\n",
	"a\r\r\nb\r", "x # y\r\nv 1 2\n\x00", "\xc2\x85\n\xc2\r\n1\x002",
	"p edge 2 1\r\ne 1\x00 2\r\n", "c\x00\np edge 1 0", "hypergraph 2 1\n0 1 # x\r\n",
	"18446744073709551616 -18446744073709551619",
}

// jsonSeeds seed FuzzReadMatchesReference with the edges of the JSON
// grammar: white space, escaped and reordered keys, the number grammar,
// literals where numbers belong, stray commas, trailing data, raw control
// bytes in strings and invalid UTF-8.
var jsonSeeds = []string{
	" \t\n\r{ \"type\" : \"graph\" ,\n\"n\" : 3 , \"edges\" : [ [0 ,1] , [ 1,2 ] ] }\r\n",
	`{"type":"graph","n":2,"edges":[[0,1]]}`,
	`{"n":2,"edges":[]}`, `{"type":"graph","n":1}`, `{"n":1,"n":1}`,
	`{"type\u0000":"graph","n":1}`, `{"\ud83d\ude00":1}`, `{"\ud800":1,"n":1}`, `{"\ud800A":1}`,
	`{"n":1,"t\/ype":"graph"}`, `{"\"n":1}`, `{"n\\":1}`, `{"\b\f\n\r\t":1}`,
	`{"edges":[[0,1]],"weights":[2,3],"n":2,"type":"graph"}`,
	`{"weights":[1,2,3],"edges":[[0,1,2]],"n":3,"type":"hypergraph"}`,
	`{"type":"graph","type":"graph","n":1}`, `{"n":1,"extra":null}`, `{"":1}`,
	`{"n":1.0}`, `{"n":1e2}`, `{"n":1E+0}`, `{"n":2,"edges":[[0,1e0]]}`, `{"n":2,"weights":[1,2.5e1]}`,
	`{"n":-0}`, `{"n":2,"edges":[[-0,1]]}`, `{"n":1,"weights":[-0]}`, `{"n":01}`, `{"n":2,"edges":[[01]]}`,
	`{"n":-01}`, `{"n":-}`, `{"n":+1}`, `{"n":.5}`, `{"n":1.}`, `{"n":1e}`, `{"n":1e+}`, `{"n":1.e5}`,
	`{"n":99999999999999999999}`, `{"n":-2147483649}`, `{"n":2147483648}`,
	`{"n":2,"edges":[[0,-2147483648]]}`, `{"n":1,"weights":[9223372036854775808]}`,
	`{"n":true}`, `{"n":null}`, `{"n":2,"edges":[[0,false]]}`, `{"n":1,"weights":[null]}`,
	`{"n":"1"}`, `{"type":1,"n":1}`, `{"type":null,"n":1}`, `{"type":["graph"],"n":1}`,
	`{"n":1} x`, `{"n":1}}`, `}{}`, "{\"n\":1}\n\n", `{"n":1}{}`, `{"n":1}]`, "{\"n\":1}\x00",
	`{"n":2,"edges":[[0,1,]]}`, `{"n":2,"edges":[[0,1],]}`, `{"n":2,"weights":[1,]}`, `{"n":1,}`,
	`{,"n":1}`, `{"n":2,"edges":[,[0,1]]}`, `{"n" 1}`, `{"n":1 "edges":[]}`, `{"n":2,"edges":[[0,1] [1,0]]}`,
	"{\"ty\x01pe\":\"graph\",\"n\":1}", "{\"type\":\"gra\nph\",\"n\":1}", "{\"n\":1,\"\t\":2}",
	"{\"type\":\"graph\xff\",\"n\":1}", "{\"\xff\":1}", "{\"n\":1}\xff", "\xff{\"n\":1}", "\ufeff{\"n\":1}",
	`{"\x":1}`, `{"\u12":1}`, `{"\u12G4":1}`, `{"n\":1}`, `{"n`, `{"n":`, `{"n":1`, `{"n":2,"edges":[[0,1]`,
	`{"n":2,"edges":[[[0],1]]}`, `{"n":2,"edges":[{}]}`, `{"n":{}}`, `{"n":[]}`,
	``, `{}`, `{ }`, `[]`, `"n"`, "\u0085{\"n\":1}", "\v{\"n\":1}",
	`{"type":"hypergraph","n":3,"edges":[[0,1,2],[2]]}`,
	`{"type":"hypergraph","n":3,"edges":[[0,0,1]],"weights":[1,2,3]}`,
	`{"n":0,"weights":[]}`, `{"n":2,"edges":[[1,0],[0,1]]}`, `{"n":2,"edges":[[0,1]],"x":[}`,
}

func FuzzReadGraph(f *testing.F) {
	for _, s := range graphSeeds {
		f.Add(s)
	}
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
	for _, s := range hypergraphSeeds {
		f.Add(s)
	}
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
				if !sameHypergraph(got, h) {
					t.Fatalf("format %v: round trip changed the hypergraph", out)
				}
			}
		}
	})
}

// sameHypergraph reports whether a and b have the same vertices, edges
// and weights.
func sameHypergraph(a, b *hypergraph.Hypergraph) bool {
	return a.N() == b.N() && reflect.DeepEqual(a.Edges(), b.Edges()) &&
		reflect.DeepEqual(a.Weights(), b.Weights())
}

// FuzzReadMatchesReference feeds every input through the readers and
// the streaming readers they replaced, as both substrates and under
// every format. They must build equal instances or fail with identical
// error text.
func FuzzReadMatchesReference(f *testing.F) {
	for _, seeds := range [][]string{graphSeeds, hypergraphSeeds, fieldSeeds, jsonSeeds} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	for _, tcs := range [][]malformedInput{malformedGraphInputs, malformedHypergraphInputs} {
		for _, tc := range tcs {
			f.Add(tc.input)
		}
	}
	for _, tc := range weightedGraphParseErrors {
		f.Add(tc.input)
	}
	for _, tc := range weightedHypergraphParseErrors {
		f.Add(tc.input)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, format := range []Format{FormatAuto, FormatEdgeList, FormatDIMACS, FormatJSON} {
			if format == FormatAuto {
				got, err := sniffFormat([]byte(input))
				want, werr := refSniffFormat(bufio.NewReader(strings.NewReader(input)))
				if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("sniffFormat(%q) = %v, %v; reference %v, %v", input, got, err, want, werr)
				}
			}
			g, err := ReadGraph(strings.NewReader(input), format)
			wg, werr := refReadGraph(strings.NewReader(input), format)
			if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !graph.Equal(g, wg) {
				t.Fatalf("ReadGraph(%q, %v) = %v, %v; reference %v, %v", input, format, g, err, wg, werr)
			}
			h, err := ReadHypergraph(strings.NewReader(input), format)
			wh, werr := refReadHypergraph(strings.NewReader(input), format)
			if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && !sameHypergraph(h, wh) {
				t.Fatalf("ReadHypergraph(%q, %v) = %v, %v; reference %v, %v", input, format, h, err, wh, werr)
			}
		}
	})
}

// splitLineRef is the reference tokenizer: the fields strings.Fields
// finds before the first comment byte (none when comment is -1).
func splitLineRef(line string, comment int) []string {
	if comment >= 0 {
		if i := strings.IndexByte(line, byte(comment)); i >= 0 {
			line = line[:i]
		}
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
	for _, body := range fieldSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		// The scanner must cut the lines bufio.Scanner cuts and split
		// them as strings.Fields does, with the edge list's '#' comments
		// and with DIMACS's none.
		for _, comment := range []int{'#', -1} {
			sc := textScanner{data: []byte(body), comment: comment}
			ref := bufio.NewScanner(strings.NewReader(body))
			ref.Buffer(nil, len(body)+bufio.MaxScanTokenSize)
			var fields [][]byte
			for lines := 1; ref.Scan(); lines++ {
				var ok bool
				fields, ok = sc.next(fields)
				want := splitLineRef(ref.Text(), comment)
				if !ok || sc.ln != lines || string(sc.line()) != ref.Text() ||
					fmt.Sprintf("%q", fields) != fmt.Sprintf("%q", want) {
					t.Fatalf("comment %d: line %d of %q: scanned %v %q %q, want %q %q",
						comment, lines, body, ok, sc.line(), fields, ref.Text(), want)
				}
			}
			if _, ok := sc.next(fields); ok {
				t.Fatalf("comment %d: %q: scanned line %d past the last", comment, body, sc.ln)
			}
		}
		for _, s := range append(strings.Fields(body), body) {
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
