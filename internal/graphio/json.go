package graphio

// json.go implements the JSON document format, the one cmd/cfserve
// advertises as its default request body:
//
//	{"type":"graph","n":5,"edges":[[0,1],[1,2]]}
//	{"type":"hypergraph","n":6,"edges":[[0,1,2],[3,4,5]]}
//
// An optional "weights":[w0,...,w_{n-1}] key carries per-vertex weights;
// the writers emit it only on weighted instances, so unweighted documents
// round-trip byte-identically. The document is decoded token by token
// with a json.Decoder over the body. Decoding is strict: unknown or
// repeated keys, a "type" that contradicts the requested substrate,
// fractional or out-of-range numbers, a weight vector of the wrong
// length, and trailing data after the closing brace are all reported as
// ErrFormat.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// parseJSONGraph parses a {"type":"graph",...} document.
func parseJSONGraph(data []byte) (*graph.Graph, error) {
	n, edges, ws, err := readJSONInstance(bytes.NewReader(data), "graph")
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n)
	b.EdgeCapacityHint(len(edges))
	for i, e := range edges {
		if len(e) != 2 {
			return nil, fmt.Errorf("%w: edge %d has %d endpoints, want 2", ErrFormat, i, len(e))
		}
		b.AddEdge(e[0], e[1])
	}
	b.SetWeights(ws)
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if g.M() != len(edges) {
		return nil, fmt.Errorf("%w: %d of %d edges repeat an earlier edge", ErrDuplicateEdge, len(edges)-g.M(), len(edges))
	}
	return g, nil
}

// writeJSONGraph writes g as a single-object JSON document.
func writeJSONGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"type":"graph","n":%d,"edges":[`, g.N())
	first := true
	var err error
	g.ForEachEdge(func(u, v int32) bool {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		_, err = fmt.Fprintf(bw, "[%d,%d]", u, v)
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("graphio: writing JSON graph: %w", err)
	}
	bw.WriteByte(']')
	writeJSONWeights(bw, g.Weighted(), g.N(), g.Weight)
	bw.WriteString("}\n")
	return bw.Flush()
}

// parseJSONHypergraph parses a {"type":"hypergraph",...} document.
func parseJSONHypergraph(data []byte) (*hypergraph.Hypergraph, error) {
	n, edges, ws, err := readJSONInstance(bytes.NewReader(data), "hypergraph")
	if err != nil {
		return nil, err
	}
	h, err := hypergraph.NewWeighted(n, edges, ws)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return h, nil
}

// writeJSONHypergraph writes h as a single-object JSON document.
func writeJSONHypergraph(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"type":"hypergraph","n":%d,"edges":[`, h.N())
	for j := 0; j < h.M(); j++ {
		if j > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('[')
		first := true
		h.ForEachEdgeVertex(j, func(v int32) bool {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(strconv.Itoa(int(v)))
			return true
		})
		bw.WriteByte(']')
	}
	bw.WriteByte(']')
	writeJSONWeights(bw, h.Weighted(), h.N(), h.Weight)
	bw.WriteString("}\n")
	return bw.Flush()
}

// writeJSONWeights emits the `,"weights":[...]` member on weighted
// instances (all n entries, so the document is self-describing).
func writeJSONWeights(bw *bufio.Writer, weighted bool, n int, weight func(int32) int64) {
	if !weighted {
		return
	}
	bw.WriteString(`,"weights":[`)
	for v := 0; v < n; v++ {
		if v > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.FormatInt(weight(int32(v)), 10))
	}
	bw.WriteByte(']')
}

// readJSONInstance token-decodes one {"type","n","edges","weights"}
// document. "type", when present, must equal wantType; "n" is required;
// "edges" defaults to none; "weights" defaults to all-unit (nil). Keys may
// appear in any order but not twice.
func readJSONInstance(r io.Reader, wantType string) (n int, edges [][]int32, ws []int64, err error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := expectDelim(dec, '{'); err != nil {
		return 0, nil, nil, err
	}
	seen := map[string]bool{}
	haveN := false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return 0, nil, nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		key, ok := tok.(string)
		if !ok {
			return 0, nil, nil, fmt.Errorf("%w: object key %v", ErrFormat, tok)
		}
		if seen[key] {
			return 0, nil, nil, fmt.Errorf("%w: repeated key %q", ErrFormat, key)
		}
		seen[key] = true
		switch key {
		case "type":
			tok, err := dec.Token()
			if err != nil {
				return 0, nil, nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			typ, ok := tok.(string)
			if !ok || typ != wantType {
				return 0, nil, nil, fmt.Errorf("%w: type %v, want %q", ErrFormat, tok, wantType)
			}
		case "n":
			v, err := decodeInt32(dec)
			if err != nil {
				return 0, nil, nil, err
			}
			if v < 0 {
				return 0, nil, nil, fmt.Errorf("%w: negative n %d", ErrFormat, v)
			}
			if err := checkNodeCount(int64(v)); err != nil {
				return 0, nil, nil, err
			}
			n, haveN = int(v), true
		case "edges":
			edges, err = decodeEdges(dec)
			if err != nil {
				return 0, nil, nil, err
			}
		case "weights":
			ws, err = decodeWeights(dec)
			if err != nil {
				return 0, nil, nil, err
			}
		default:
			return 0, nil, nil, fmt.Errorf("%w: unknown key %q", ErrFormat, key)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return 0, nil, nil, err
	}
	if !haveN {
		return 0, nil, nil, fmt.Errorf("%w: missing key \"n\"", ErrFormat)
	}
	if ws != nil && len(ws) != n {
		return 0, nil, nil, fmt.Errorf("%w: %d weights for %d vertices", ErrFormat, len(ws), n)
	}
	if _, err := dec.Token(); err != io.EOF {
		return 0, nil, nil, fmt.Errorf("%w: trailing data after the document", ErrFormat)
	}
	return n, edges, ws, nil
}

// decodeEdges consumes [[...],[...],...], one inner array per edge.
func decodeEdges(dec *json.Decoder) ([][]int32, error) {
	if err := expectDelim(dec, '['); err != nil {
		return nil, err
	}
	var edges [][]int32
	for dec.More() {
		if err := expectDelim(dec, '['); err != nil {
			return nil, err
		}
		var edge []int32
		for dec.More() {
			v, err := decodeInt32(dec)
			if err != nil {
				return nil, err
			}
			edge = append(edge, v)
		}
		if err := expectDelim(dec, ']'); err != nil {
			return nil, err
		}
		edges = append(edges, edge)
	}
	if err := expectDelim(dec, ']'); err != nil {
		return nil, err
	}
	return edges, nil
}

// decodeWeights consumes [w0,w1,...], one int64 per vertex. The result is
// non-nil even when empty so the caller can length-check it against n.
func decodeWeights(dec *json.Decoder) ([]int64, error) {
	if err := expectDelim(dec, '['); err != nil {
		return nil, err
	}
	ws := []int64{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		num, ok := tok.(json.Number)
		if !ok {
			return nil, fmt.Errorf("%w: weight %v is not a number", ErrFormat, tok)
		}
		w, err := strconv.ParseInt(num.String(), 10, 64)
		if err != nil {
			if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
				return nil, fmt.Errorf("%w: weight %s overflows int64", ErrFormat, num)
			}
			return nil, fmt.Errorf("%w: non-integer weight %s", ErrFormat, num)
		}
		ws = append(ws, w)
	}
	if err := expectDelim(dec, ']'); err != nil {
		return nil, err
	}
	return ws, nil
}

// decodeInt32 consumes one number token that must be an integer fitting
// in int32 (overflow is an explicit error, not a wraparound).
func decodeInt32(dec *json.Decoder) (int32, error) {
	tok, err := dec.Token()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	num, ok := tok.(json.Number)
	if !ok {
		return 0, fmt.Errorf("%w: %v is not a number", ErrFormat, tok)
	}
	v, err := strconv.ParseInt(num.String(), 10, 32)
	if err != nil {
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			return 0, fmt.Errorf("%w: vertex id %s overflows int32", ErrFormat, num)
		}
		return 0, fmt.Errorf("%w: non-integer number %s", ErrFormat, num)
	}
	return int32(v), nil
}

// expectDelim consumes one token and checks it is the given delimiter.
func expectDelim(dec *json.Decoder, want rune) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if d, ok := tok.(json.Delim); !ok || rune(d) != want {
		return fmt.Errorf("%w: token %v, want %q", ErrFormat, tok, want)
	}
	return nil
}
