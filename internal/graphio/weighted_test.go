package graphio

// weighted_test.go covers the weighted instance encodings: round trips of
// weighted graphs and hypergraphs through every supporting format, strict
// parse errors, and the contract that unweighted documents are
// byte-identical to the pre-weights schema.

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pslocal/internal/core"
	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// withRandomWeights attaches a skewed random weight vector to g.
func withRandomWeights(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	if g.N() == 0 {
		return g
	}
	ws := make([]int64, g.N())
	for i := range ws {
		ws[i] = 1 + rng.Int63n(1<<20)*rng.Int63n(2)
	}
	ws[0] = graph.MaxWeight // pin the extreme value through every format
	wg, err := graph.WithWeights(g, ws)
	if err != nil {
		t.Fatalf("WithWeights: %v", err)
	}
	return wg
}

func TestWeightedGraphRoundTripAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, base := range testGraphs(t) {
		g := withRandomWeights(t, base, rng)
		if !g.Weighted() {
			continue // the empty graph cannot carry weights
		}
		for _, f := range []Format{FormatEdgeList, FormatDIMACS, FormatJSON} {
			var buf bytes.Buffer
			if err := WriteGraph(&buf, g, f); err != nil {
				t.Fatalf("%s/%v: write: %v", name, f, err)
			}
			encoded := buf.String()
			for _, rf := range []Format{f, FormatAuto} {
				got, err := ReadGraph(strings.NewReader(encoded), rf)
				if err != nil {
					t.Fatalf("%s/%v as %v: read: %v\n%s", name, f, rf, err, encoded)
				}
				if !graph.Equal(g, got) {
					t.Errorf("%s/%v as %v: round trip changed the weighted graph", name, f, rf)
				}
			}
			// Canonical form: re-encoding the parse is byte-identical.
			got, err := ReadGraph(strings.NewReader(encoded), f)
			if err != nil {
				t.Fatalf("%s/%v: reread: %v", name, f, err)
			}
			var buf2 bytes.Buffer
			if err := WriteGraph(&buf2, got, f); err != nil {
				t.Fatalf("%s/%v: rewrite: %v", name, f, err)
			}
			if buf2.String() != encoded {
				t.Errorf("%s/%v: weighted re-encoding not byte-identical", name, f)
			}
		}
	}
}

func TestWeightedHypergraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, base := range testHypergraphs(t) {
		ws := make([]int64, base.N())
		for i := range ws {
			ws[i] = 1 + rng.Int63n(999)
		}
		h, err := hypergraph.WithWeights(base, ws)
		if err != nil {
			t.Fatalf("%s: WithWeights: %v", name, err)
		}
		if !h.Weighted() {
			t.Fatalf("%s: weight vector normalised away unexpectedly", name)
		}
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
					t.Errorf("%s/%v as %v: round trip changed the structure", name, f, rf)
				}
				if !reflect.DeepEqual(got.Weights(), h.Weights()) {
					t.Errorf("%s/%v as %v: round trip changed the weights: %v -> %v",
						name, f, rf, h.Weights(), got.Weights())
				}
			}
		}
	}
}

// TestUnweightedEncodingUnchanged pins the schema contract: writers emit
// weight syntax only for weighted instances, so unweighted documents are
// byte-identical to the pre-weights encoding (no "v" lines, no "n" lines,
// no "weights" key).
func TestUnweightedEncodingUnchanged(t *testing.T) {
	g := graph.Grid(3, 3)
	for f, needle := range map[Format]string{
		FormatEdgeList: "\nv ",
		FormatDIMACS:   "\nn ",
		FormatJSON:     `"weights"`,
	} {
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g, f); err != nil {
			t.Fatalf("%v: write: %v", f, err)
		}
		if strings.Contains(buf.String(), needle) {
			t.Errorf("%v: unweighted document contains weight syntax %q:\n%s", f, needle, buf.String())
		}
	}
}

// weightedGraphParseErrors feeds TestWeightedGraphParseErrors and seeds
// FuzzReadMatchesReference; every input fails with ErrFormat.
var weightedGraphParseErrors = []struct {
	name   string
	format Format
	input  string
}{
	{"edgelist weight overflow", FormatEdgeList, "3 0\nv 0 99999999999999999999\n"},
	{"edgelist negative weight", FormatEdgeList, "3 0\nv 0 -2\n"},
	{"edgelist weight above cap", FormatEdgeList, "3 0\nv 0 2147483648\n"},
	{"edgelist vertex out of range", FormatEdgeList, "3 0\nv 7 2\n"},
	{"edgelist duplicate declaration", FormatEdgeList, "3 0\nv 1 2\nv 1 3\n"},
	{"edgelist bad weight token", FormatEdgeList, "3 0\nv 1 two\n"},
	{"dimacs negative weight", FormatDIMACS, "p edge 3 0\nn 1 -5\n"},
	{"dimacs weight overflow", FormatDIMACS, "p edge 3 0\nn 1 99999999999999999999\n"},
	{"dimacs node before problem line", FormatDIMACS, "n 1 5\np edge 3 0\n"},
	{"dimacs node id out of range", FormatDIMACS, "p edge 3 0\nn 4 5\n"},
	{"dimacs short node line", FormatDIMACS, "p edge 3 0\nn 1\n"},
	{"json weight length mismatch", FormatJSON, `{"type":"graph","n":3,"edges":[],"weights":[1,2]}`},
	{"json empty weights nonempty graph", FormatJSON, `{"type":"graph","n":3,"edges":[],"weights":[]}`},
	{"json negative weight", FormatJSON, `{"type":"graph","n":2,"edges":[],"weights":[1,-3]}`},
	{"json non-integer weight", FormatJSON, `{"type":"graph","n":2,"edges":[],"weights":[1,2.5]}`},
	{"json weight overflow", FormatJSON, `{"type":"graph","n":2,"edges":[],"weights":[1,99999999999999999999]}`},
}

func TestWeightedGraphParseErrors(t *testing.T) {
	for _, tc := range weightedGraphParseErrors {
		if _, err := ReadGraph(strings.NewReader(tc.input), tc.format); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", tc.name, err)
		}
	}
}

// weightedHypergraphParseErrors feeds TestWeightedHypergraphParseErrors
// and seeds FuzzReadMatchesReference; every input fails with ErrFormat.
var weightedHypergraphParseErrors = []struct {
	name   string
	format Format
	input  string
}{
	{"edgelist negative weight", FormatEdgeList, "h 3 0\nv 0 -2\n"},
	{"edgelist duplicate declaration", FormatEdgeList, "h 3 0\nv 1 2\nv 1 3\n"},
	{"json weight length mismatch", FormatJSON, `{"type":"hypergraph","n":3,"edges":[],"weights":[1,2]}`},
}

func TestWeightedHypergraphParseErrors(t *testing.T) {
	for _, tc := range weightedHypergraphParseErrors {
		if _, err := ReadHypergraph(strings.NewReader(tc.input), tc.format); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", tc.name, err)
		}
	}
}

// TestWeightedResultRoundTrip checks the weight fields of the result
// document survive a write/read cycle and stay absent when unweighted.
func TestWeightedResultRoundTrip(t *testing.T) {
	res := &core.Result{
		K:           2,
		TotalColors: 4,
		Weighted:    true,
		TotalWeight: 321,
		Phases: []core.PhaseStat{
			{Phase: 1, EdgesBefore: 5, ConflictNodes: 9, ConflictEdges: 12, ISSize: 3, ISWeight: 200, HappyRemoved: 4},
			{Phase: 2, EdgesBefore: 1, ConflictNodes: 2, ConflictEdges: 1, ISSize: 1, ISWeight: 121, HappyRemoved: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	got, err := ReadResult(&buf)
	if err != nil {
		t.Fatalf("ReadResult: %v", err)
	}
	if got.Weighted != res.Weighted || got.TotalWeight != res.TotalWeight {
		t.Errorf("weight fields lost: %+v", got)
	}
	if got.Phases[0].ISWeight != 200 || got.Phases[1].ISWeight != 121 {
		t.Errorf("phase weights lost: %+v", got.Phases)
	}

	// An unweighted result document must not mention the weight keys.
	var ubuf bytes.Buffer
	if err := WriteResult(&ubuf, &core.Result{K: 2, TotalColors: 2,
		Phases: []core.PhaseStat{{Phase: 1, EdgesBefore: 1, ISSize: 1, HappyRemoved: 1}}}); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	for _, key := range []string{"weighted", "total_weight", "is_weight"} {
		if strings.Contains(ubuf.String(), key) {
			t.Errorf("unweighted result document contains %q:\n%s", key, ubuf.String())
		}
	}
}
