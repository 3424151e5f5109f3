package graphio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"pslocal/internal/core"
	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// testGraphs returns a spread of graph shapes: empty, edgeless, sparse
// random, dense random, and structured.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0).MustBuild(),
		"edgeless": graph.NewBuilder(5).MustBuild(),
		"sparse":   graph.GnP(40, 0.05, rng),
		"dense":    graph.GnP(25, 0.5, rng),
		"grid":     graph.Grid(4, 6),
		"cycle":    graph.Cycle(9),
	}
}

// testHypergraphs returns a spread of hypergraph instances.
func testHypergraphs(t *testing.T) map[string]*hypergraph.Hypergraph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	planted, _, err := hypergraph.PlantedCF(30, 12, 3, 3, 5, rng)
	if err != nil {
		t.Fatalf("PlantedCF: %v", err)
	}
	interval, err := hypergraph.Interval(24, 10, 2, 6, rng)
	if err != nil {
		t.Fatalf("Interval: %v", err)
	}
	return map[string]*hypergraph.Hypergraph{
		"edgeless": hypergraph.MustNew(4, nil),
		"single":   hypergraph.MustNew(3, [][]int32{{0, 1, 2}}),
		"planted":  planted,
		"interval": interval,
	}
}

func TestGraphRoundTripAllFormats(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, f := range []Format{FormatEdgeList, FormatDIMACS, FormatJSON} {
			var buf bytes.Buffer
			if err := WriteGraph(&buf, g, f); err != nil {
				t.Fatalf("%s/%v: write: %v", name, f, err)
			}
			encoded := buf.String()

			got, err := ReadGraph(strings.NewReader(encoded), f)
			if err != nil {
				t.Fatalf("%s/%v: read: %v\n%s", name, f, err, encoded)
			}
			if !graph.Equal(g, got) {
				t.Errorf("%s/%v: round trip changed the graph: %v -> %v", name, f, g, got)
			}

			// Auto detection must land on the same parse.
			got, err = ReadGraph(strings.NewReader(encoded), FormatAuto)
			if err != nil {
				t.Fatalf("%s/%v: auto read: %v", name, f, err)
			}
			if !graph.Equal(g, got) {
				t.Errorf("%s/%v: auto round trip changed the graph", name, f)
			}

			// Re-encoding the parse must be byte-identical (canonical form).
			var buf2 bytes.Buffer
			if err := WriteGraph(&buf2, got, f); err != nil {
				t.Fatalf("%s/%v: rewrite: %v", name, f, err)
			}
			if buf2.String() != encoded {
				t.Errorf("%s/%v: re-encoding not byte-identical", name, f)
			}
		}
	}
}

func TestHypergraphRoundTrip(t *testing.T) {
	for name, h := range testHypergraphs(t) {
		for _, f := range []Format{FormatEdgeList, FormatJSON} {
			var buf bytes.Buffer
			if err := WriteHypergraph(&buf, h, f); err != nil {
				t.Fatalf("%s/%v: write: %v", name, f, err)
			}
			for _, rf := range []Format{f, FormatAuto} {
				got, err := ReadHypergraph(strings.NewReader(buf.String()), rf)
				if err != nil {
					t.Fatalf("%s/%v as %v: read: %v\n%s", name, f, rf, err, buf.String())
				}
				if got.N() != h.N() || !reflect.DeepEqual(got.Edges(), h.Edges()) {
					t.Errorf("%s/%v as %v: round trip changed the hypergraph", name, f, rf)
				}
			}
		}
	}
}

func TestHypergraphDIMACSUnsupported(t *testing.T) {
	h := hypergraph.MustNew(3, [][]int32{{0, 1, 2}})
	if err := WriteHypergraph(&bytes.Buffer{}, h, FormatDIMACS); !errors.Is(err, ErrUnsupported) {
		t.Errorf("WriteHypergraph(DIMACS) error = %v, want ErrUnsupported", err)
	}
	if _, err := ReadHypergraph(strings.NewReader("p edge 3 0\n"), FormatDIMACS); !errors.Is(err, ErrUnsupported) {
		t.Errorf("ReadHypergraph(DIMACS) error = %v, want ErrUnsupported", err)
	}
}

// TestEncodeCompat pins the compatibility guarantee: instance files in
// the legacy plain-text format (a "<kind> n m" header, one edge per
// line, '#' comments, blank lines) parse unchanged through graphio.
func TestEncodeCompat(t *testing.T) {
	const legacyGraph = "# a 4-cycle\ngraph 4 4\n0 1\n1 2\n\n2 3\n3 0\n"
	g, err := ReadGraph(strings.NewReader(legacyGraph), FormatAuto)
	if err != nil {
		t.Fatalf("graphio cannot read a legacy graph file: %v", err)
	}
	if !graph.Equal(g, graph.Cycle(4)) {
		t.Errorf("legacy graph parsed as %v, want the 4-cycle", g)
	}

	const legacyHypergraph = "hypergraph 5 2\n0 1\n2 3 4 # last edge\n"
	h, err := ReadHypergraph(strings.NewReader(legacyHypergraph), FormatAuto)
	if err != nil {
		t.Fatalf("graphio cannot read a legacy hypergraph file: %v", err)
	}
	want := hypergraph.MustNew(5, [][]int32{{0, 1}, {2, 3, 4}})
	if h.N() != want.N() || !reflect.DeepEqual(h.Edges(), want.Edges()) {
		t.Error("legacy hypergraph file parsed into a different instance")
	}
}

// tooManyNodes is the smallest node count the readers reject.
var tooManyNodes = strconv.Itoa(MaxNodes + 1)

// malformedInput is a rejected input and the sentinel its error matches.
type malformedInput struct {
	name   string
	format Format
	input  string
	want   error
}

// malformedGraphInputs feeds TestMalformedGraphInputs and seeds
// FuzzReadMatchesReference.
var malformedGraphInputs = []malformedInput{
	// Edge list.
	{"edgelist/empty", FormatEdgeList, "", ErrFormat},
	{"edgelist/truncated header", FormatEdgeList, "graph 5\n0 1\n", ErrFormat},
	{"edgelist/bad header counts", FormatEdgeList, "graph x y\n", ErrFormat},
	{"edgelist/wrong kind", FormatEdgeList, "hypergraph 5 1\n0 1\n", ErrFormat},
	{"edgelist/negative n", FormatEdgeList, "graph -5 0\n", ErrFormat},
	{"edgelist/too many nodes", FormatEdgeList, "graph " + tooManyNodes + " 0\n", ErrTooLarge},
	{"edgelist/count mismatch", FormatEdgeList, "graph 5 2\n0 1\n", ErrFormat},
	{"edgelist/bad endpoint count", FormatEdgeList, "graph 5 1\n0 1 2\n", ErrFormat},
	{"edgelist/bad vertex token", FormatEdgeList, "graph 5 1\n0 x\n", ErrFormat},
	{"edgelist/vertex overflow", FormatEdgeList, "graph 5 1\n0 5000000000\n", ErrFormat},
	{"edgelist/vertex out of range", FormatEdgeList, "graph 5 1\n0 5\n", ErrFormat},
	{"edgelist/self loop", FormatEdgeList, "graph 5 1\n2 2\n", ErrFormat},
	{"edgelist/duplicate edge", FormatEdgeList, "graph 5 2\n0 1\n1 0\n", ErrDuplicateEdge},
	// DIMACS.
	{"dimacs/missing p", FormatDIMACS, "c only a comment\n", ErrFormat},
	{"dimacs/truncated p", FormatDIMACS, "p edge 5\ne 1 2\n", ErrFormat},
	{"dimacs/too many nodes", FormatDIMACS, "p edge " + tooManyNodes + " 0\n", ErrTooLarge},
	{"dimacs/second p", FormatDIMACS, "p edge 5 0\np edge 5 0\n", ErrFormat},
	{"dimacs/edge before p", FormatDIMACS, "e 1 2\np edge 5 1\n", ErrFormat},
	{"dimacs/count mismatch", FormatDIMACS, "p edge 5 2\ne 1 2\n", ErrFormat},
	{"dimacs/zero-based vertex", FormatDIMACS, "p edge 5 1\ne 0 1\n", ErrFormat},
	{"dimacs/vertex out of range", FormatDIMACS, "p edge 5 1\ne 1 6\n", ErrFormat},
	{"dimacs/vertex overflow", FormatDIMACS, "p edge 5 1\ne 1 5000000000\n", ErrFormat},
	{"dimacs/unknown line", FormatDIMACS, "p edge 5 1\nq 1 2\n", ErrFormat},
	{"dimacs/duplicate edge", FormatDIMACS, "p edge 5 2\ne 1 2\ne 2 1\n", ErrDuplicateEdge},
	// JSON.
	{"json/truncated", FormatJSON, `{"type":"graph","n":3`, ErrFormat},
	{"json/wrong type", FormatJSON, `{"type":"hypergraph","n":3,"edges":[]}`, ErrFormat},
	{"json/missing n", FormatJSON, `{"type":"graph","edges":[[0,1]]}`, ErrFormat},
	{"json/negative n", FormatJSON, `{"type":"graph","n":-1,"edges":[]}`, ErrFormat},
	{"json/too many nodes", FormatJSON, `{"n":` + tooManyNodes + `}`, ErrTooLarge},
	{"json/repeated key", FormatJSON, `{"type":"graph","n":3,"n":3,"edges":[]}`, ErrFormat},
	{"json/unknown key", FormatJSON, `{"type":"graph","n":3,"weight":1,"edges":[]}`, ErrFormat},
	{"json/bad arity", FormatJSON, `{"type":"graph","n":3,"edges":[[0,1,2]]}`, ErrFormat},
	{"json/non-integer", FormatJSON, `{"type":"graph","n":3,"edges":[[0,1.5]]}`, ErrFormat},
	{"json/vertex overflow", FormatJSON, `{"type":"graph","n":3,"edges":[[0,5000000000]]}`, ErrFormat},
	{"json/vertex out of range", FormatJSON, `{"type":"graph","n":3,"edges":[[0,3]]}`, ErrFormat},
	{"json/trailing data", FormatJSON, `{"type":"graph","n":3,"edges":[]}{}`, ErrFormat},
	{"json/duplicate edge", FormatJSON, `{"type":"graph","n":3,"edges":[[0,1],[1,0]]}`, ErrDuplicateEdge},
}

func TestMalformedGraphInputs(t *testing.T) {
	for _, tc := range malformedGraphInputs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadGraph(strings.NewReader(tc.input), tc.format)
			if !errors.Is(err, tc.want) {
				t.Errorf("ReadGraph error = %v, want %v", err, tc.want)
			}
		})
	}
}

// malformedHypergraphInputs feeds TestMalformedHypergraphInputs and
// seeds FuzzReadMatchesReference.
var malformedHypergraphInputs = []malformedInput{
	{"edgelist/empty", FormatEdgeList, "", ErrFormat},
	{"edgelist/truncated header", FormatEdgeList, "hypergraph 5\n0 1\n", ErrFormat},
	{"edgelist/too many nodes", FormatEdgeList, "hypergraph " + tooManyNodes + " 0\n", ErrTooLarge},
	{"edgelist/wrong kind", FormatEdgeList, "graph 5 1\n0 1\n", ErrFormat},
	{"edgelist/count mismatch", FormatEdgeList, "hypergraph 5 2\n0 1 2\n", ErrFormat},
	{"edgelist/bad vertex token", FormatEdgeList, "hypergraph 3 1\n0 x\n", ErrFormat},
	{"edgelist/vertex overflow", FormatEdgeList, "hypergraph 5 1\n0 1 5000000000\n", ErrFormat},
	{"edgelist/vertex out of range", FormatEdgeList, "hypergraph 5 1\n0 1 7\n", ErrFormat},
	{"json/wrong type", FormatJSON, `{"type":"graph","n":3,"edges":[]}`, ErrFormat},
	{"json/empty edge", FormatJSON, `{"type":"hypergraph","n":3,"edges":[[]]}`, ErrFormat},
	{"json/too many nodes", FormatJSON, `{"type":"hypergraph","n":` + tooManyNodes + `}`, ErrTooLarge},
	{"json/vertex out of range", FormatJSON, `{"type":"hypergraph","n":3,"edges":[[0,1,3]]}`, ErrFormat},
}

func TestMalformedHypergraphInputs(t *testing.T) {
	for _, tc := range malformedHypergraphInputs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadHypergraph(strings.NewReader(tc.input), tc.format)
			if !errors.Is(err, tc.want) {
				t.Errorf("ReadHypergraph error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadErrorKeepsCause pins that a source failing part way through
// the body is reported as a read failure under every format: the cause
// stays reachable and the error is not ErrFormat.
func TestReadErrorKeepsCause(t *testing.T) {
	cause := errors.New("connection torn down")
	for _, f := range []Format{FormatAuto, FormatEdgeList, FormatDIMACS, FormatJSON} {
		body := func() io.Reader {
			return io.MultiReader(strings.NewReader(`{"type":"graph","n":`), iotest.ErrReader(cause))
		}
		if _, err := ReadGraph(body(), f); !errors.Is(err, cause) || errors.Is(err, ErrFormat) {
			t.Errorf("ReadGraph(%v) error = %v, want the read failure", f, err)
		}
		if _, err := ReadHypergraph(body(), f); !errors.Is(err, cause) || errors.Is(err, ErrFormat) {
			t.Errorf("ReadHypergraph(%v) error = %v, want the read failure", f, err)
		}
	}
}

// TestHeaderEdgeCountOnlyHintsCapacity feeds short bodies whose headers
// claim three billion edges. The claim may size buffers only up to a
// cap: sized from the header alone, the reservation would exhaust memory
// and kill the process instead of failing the count check.
func TestHeaderEdgeCountOnlyHintsCapacity(t *testing.T) {
	for _, tc := range []struct {
		format Format
		input  string
	}{
		{FormatEdgeList, "graph 2 3000000000\n0 1\n"},
		{FormatDIMACS, "p edge 2 3000000000\ne 1 2\n"},
		{FormatEdgeList, "hypergraph 2 3000000000\n0 1\n"},
	} {
		var err error
		if strings.HasPrefix(tc.input, "hypergraph") {
			_, err = ReadHypergraph(strings.NewReader(tc.input), tc.format)
		} else {
			_, err = ReadGraph(strings.NewReader(tc.input), tc.format)
		}
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "promises 3000000000 edges, found 1") {
			t.Errorf("%q: error = %v, want the edge-count mismatch", tc.input, err)
		}
	}
}

// TestNodeCountLimit pins the node-count policy: a count of MaxNodes
// passes, one more fails with ErrTooLarge, and ErrTooLarge is a kind of
// ErrFormat, so callers that map ErrFormat onto a client error (cfserve
// answers 400) need no new case. The readers' use of the check is pinned
// by the "too many nodes" rows of the malformed-input tables.
func TestNodeCountLimit(t *testing.T) {
	if err := checkNodeCount(MaxNodes); err != nil {
		t.Errorf("checkNodeCount(MaxNodes) = %v, want nil", err)
	}
	err := checkNodeCount(MaxNodes + 1)
	if !errors.Is(err, ErrTooLarge) || !errors.Is(err, ErrFormat) {
		t.Errorf("checkNodeCount(MaxNodes+1) = %v, want ErrTooLarge and ErrFormat", err)
	}
}

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  Format
		err   error
	}{
		{"json", `{"type":"graph","n":1,"edges":[]}`, FormatJSON, nil},
		{"json after blank lines", "\n\n  {\"n\":0}", FormatJSON, nil},
		{"dimacs comment", "c hello\np edge 2 1\ne 1 2\n", FormatDIMACS, nil},
		{"dimacs p line", "p edge 2 0\n", FormatDIMACS, nil},
		{"edgelist graph", "graph 2 1\n0 1\n", FormatEdgeList, nil},
		{"edgelist hypergraph", "hypergraph 2 1\n0 1\n", FormatEdgeList, nil},
		{"edgelist comment", "# instance\ngraph 2 1\n0 1\n", FormatEdgeList, nil},
		{"garbage", "bogus 1 2\n", FormatAuto, ErrUnknownFormat},
		{"empty", "", FormatAuto, ErrFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := sniffFormat([]byte(tc.input))
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("sniffFormat error = %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("sniffFormat: %v", err)
			}
			if got != tc.want {
				t.Errorf("sniffFormat = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestParseFormat(t *testing.T) {
	for spelling, want := range map[string]Format{
		"": FormatAuto, "auto": FormatAuto, "edgelist": FormatEdgeList,
		"edge-list": FormatEdgeList, "DIMACS": FormatDIMACS, "col": FormatDIMACS,
		"json": FormatJSON,
	} {
		got, err := ParseFormat(spelling)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("ParseFormat(xml) error = %v, want ErrUnknownFormat", err)
	}
}

func TestFormatFromPath(t *testing.T) {
	for path, want := range map[string]Format{
		"a.col": FormatDIMACS, "b.dimacs": FormatDIMACS, "c.json": FormatJSON,
		"d.hg": FormatEdgeList, "e.g": FormatEdgeList, "f": FormatAuto,
	} {
		if got := FormatFromPath(path); got != want {
			t.Errorf("FormatFromPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	g := graph.Grid(3, 3)
	for _, name := range []string{"g.col", "g.json", "g.g", "g.unknownext"} {
		path := filepath.Join(dir, name)
		if err := WriteGraphFile(path, g); err != nil {
			t.Fatalf("WriteGraphFile(%s): %v", name, err)
		}
		got, err := ReadGraphFile(path)
		if err != nil {
			t.Fatalf("ReadGraphFile(%s): %v", name, err)
		}
		if !graph.Equal(g, got) {
			t.Errorf("%s: file round trip changed the graph", name)
		}
	}

	h := hypergraph.MustNew(6, [][]int32{{0, 1, 2}, {3, 4, 5}})
	for _, name := range []string{"h.hg", "h.json"} {
		path := filepath.Join(dir, name)
		if err := WriteHypergraphFile(path, h); err != nil {
			t.Fatalf("WriteHypergraphFile(%s): %v", name, err)
		}
		got, err := ReadHypergraphFile(path)
		if err != nil {
			t.Fatalf("ReadHypergraphFile(%s): %v", name, err)
		}
		if got.N() != h.N() || !reflect.DeepEqual(got.Edges(), h.Edges()) {
			t.Errorf("%s: file round trip changed the hypergraph", name)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, _, err := hypergraph.PlantedCF(30, 12, 3, 3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Reduce(nil, h, core.Options{K: 3, Mode: core.ModeImplicitFirstFit})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	got, err := ReadResult(&buf)
	if err != nil {
		t.Fatalf("ReadResult: %v", err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("result round trip changed the document:\n%+v\n%+v", res, got)
	}

	if _, err := ReadResult(strings.NewReader(`{"type":"graph","n":1}`)); !errors.Is(err, ErrFormat) {
		t.Errorf("ReadResult on a non-result document = %v, want ErrFormat", err)
	}
}
