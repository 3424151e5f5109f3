package graphio

// edgelist.go implements the repository's native plain-text format:
//
//	graph <n> <m>          hypergraph <n> <m>
//	v <id> <w>             v <id> <w>
//	u v                    v1 v2 v3 ...
//	...                    ...
//
// One edge per line, '#' starts a comment, blank lines are skipped.
// Vertex-declaration lines start with the keyword "v" and carry an
// optional weight column (default 1); writers emit them only for
// non-unit weights, so unweighted instances round-trip byte-identically
// to the historical format. The syntax otherwise matches the legacy
// plain-text instance files (TestEncodeCompat pins them), so existing
// instances keep working; this reader is stricter in that graph inputs
// with duplicate edges are rejected (ErrDuplicateEdge) instead of
// silently merged.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// readEdgeListGraph parses the "graph n m" text format.
func readEdgeListGraph(br *bufio.Reader) (*graph.Graph, error) {
	sc := newScanner(br)
	n, m, ln, err := readEdgeListHeader(sc, "graph")
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n)
	b.EdgeCapacityHint(edgeHint(m))
	edges := 0
	var declared map[int32]bool
	fields := make([][]byte, 0, 4)
	for sc.Scan() {
		ln++
		fields = splitEdgeListLine(fields, sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "v" {
			id, w, err := parseVertexDecl(fields, n)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err)
			}
			if declared == nil {
				declared = make(map[int32]bool)
			}
			if declared[id] {
				return nil, fmt.Errorf("%w: line %d: vertex %d declared twice", ErrFormat, ln, id)
			}
			declared[id] = true
			b.SetWeight(id, w)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%w: line %d: want \"u v\", got %q", ErrFormat, ln, sc.Text())
		}
		u, err1 := parseVertex(fields[0])
		v, err2 := parseVertex(fields[1])
		if err1 != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err1)
		}
		if err2 != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err2)
		}
		b.AddEdge(u, v)
		edges++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: reading graph: %w", err)
	}
	if edges != m {
		return nil, fmt.Errorf("%w: header promises %d edges, found %d", ErrFormat, m, edges)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if g.M() != edges {
		return nil, fmt.Errorf("%w: %d of %d edge lines repeat an earlier edge", ErrDuplicateEdge, edges-g.M(), edges)
	}
	return g, nil
}

// writeEdgeListGraph writes g in the "graph n m" text format. Weighted
// graphs get one "v id w" declaration per non-unit-weight vertex.
func writeEdgeListGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %d %d\n", g.N(), g.M())
	writeEdgeListWeights(bw, g.Weighted(), g.N(), g.Weight)
	var err error
	g.ForEachEdge(func(u, v int32) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("graphio: writing graph: %w", err)
	}
	return bw.Flush()
}

// readEdgeListHypergraph parses the "hypergraph n m" text format.
func readEdgeListHypergraph(br *bufio.Reader) (*hypergraph.Hypergraph, error) {
	sc := newScanner(br)
	n, m, ln, err := readEdgeListHeader(sc, "hypergraph")
	if err != nil {
		return nil, err
	}
	// Edges go back to back into one flat array, ends[j] closing edge j;
	// hypergraph.NewWeighted copies each edge out of it.
	var flat []int32
	ends := make([]int, 0, edgeHint(m))
	var ws []int64
	var declared map[int32]bool
	fields := make([][]byte, 0, 8)
	for sc.Scan() {
		ln++
		fields = splitEdgeListLine(fields, sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "v" {
			id, w, err := parseVertexDecl(fields, n)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err)
			}
			if declared == nil {
				declared = make(map[int32]bool)
			}
			if declared[id] {
				return nil, fmt.Errorf("%w: line %d: vertex %d declared twice", ErrFormat, ln, id)
			}
			declared[id] = true
			if ws == nil {
				ws = make([]int64, n)
				for i := range ws {
					ws[i] = 1
				}
			}
			ws[id] = w
			continue
		}
		for _, f := range fields {
			v, err := parseVertex(f)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err)
			}
			flat = append(flat, v)
		}
		ends = append(ends, len(flat))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: reading hypergraph: %w", err)
	}
	if len(ends) != m {
		return nil, fmt.Errorf("%w: header promises %d edges, found %d", ErrFormat, m, len(ends))
	}
	edges := make([][]int32, len(ends))
	start := 0
	for j, end := range ends {
		edges[j] = flat[start:end]
		start = end
	}
	h, err := hypergraph.NewWeighted(n, edges, ws)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return h, nil
}

// writeEdgeListHypergraph writes h in the "hypergraph n m" text format.
// Weighted hypergraphs get one "v id w" declaration per non-unit-weight
// vertex.
func writeEdgeListHypergraph(w io.Writer, h *hypergraph.Hypergraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "hypergraph %d %d\n", h.N(), h.M())
	writeEdgeListWeights(bw, h.Weighted(), h.N(), h.Weight)
	for j := 0; j < h.M(); j++ {
		parts := make([]string, 0, h.EdgeSize(j))
		h.ForEachEdgeVertex(j, func(v int32) bool {
			parts = append(parts, strconv.Itoa(int(v)))
			return true
		})
		if _, err := fmt.Fprintln(bw, strings.Join(parts, " ")); err != nil {
			return fmt.Errorf("graphio: writing hypergraph: %w", err)
		}
	}
	return bw.Flush()
}

// readEdgeListHeader consumes lines up to and including the
// "<kind> <n> <m>" header and returns n, m and the number of lines read.
func readEdgeListHeader(sc *bufio.Scanner, kind string) (n, m, ln int, err error) {
	fields := make([][]byte, 0, 4)
	for sc.Scan() {
		ln++
		fields = splitEdgeListLine(fields, sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 || string(fields[0]) != kind {
			return 0, 0, ln, fmt.Errorf("%w: line %d: header %q, want %q n m", ErrFormat, ln, sc.Text(), kind)
		}
		n, err1 := parseInt(fields[1], strconv.IntSize)
		m, err2 := parseInt(fields[2], strconv.IntSize)
		if err1 != nil || err2 != nil || n < 0 || m < 0 {
			return 0, 0, ln, fmt.Errorf("%w: line %d: header %q", ErrFormat, ln, sc.Text())
		}
		return int(n), int(m), ln, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, ln, fmt.Errorf("graphio: reading header: %w", err)
	}
	return 0, 0, ln, fmt.Errorf("%w: missing %q header", ErrFormat, kind)
}

// splitEdgeListLine tokenises line into dst, reusing its array: the
// fields before any '#' comment, as appendFields splits them. Blank and
// comment-only lines have no fields.
func splitEdgeListLine(dst [][]byte, line []byte) [][]byte {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return appendFields(dst[:0], line)
}

// appendFields appends line's fields to dst: the runs between Unicode
// white space, split exactly where strings.Fields splits (bytes that are
// not valid UTF-8 belong to fields). The fields alias line.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		space, size := asciiSpace[line[i]], 1
		if line[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// edgeHint bounds a header's edge count before it sizes a buffer: the
// count is the input's claim, and a short body must not reserve memory
// for billions of edges. Larger inputs grow their buffers as they go.
func edgeHint(m int) int { return min(m, 1<<16) }

// parseVertexDecl parses a "v id [w]" vertex-declaration line (the weight
// column defaults to 1) and range-checks the id against n.
func parseVertexDecl(fields [][]byte, n int) (id int32, w int64, err error) {
	if len(fields) != 2 && len(fields) != 3 {
		return 0, 0, fmt.Errorf("want \"v id [w]\", got %d fields", len(fields))
	}
	id, err = parseVertex(fields[1])
	if err != nil {
		return 0, 0, err
	}
	if id < 0 || int(id) >= n {
		return 0, 0, fmt.Errorf("vertex %d out of range [0,%d)", id, n)
	}
	w = 1
	if len(fields) == 3 {
		w, err = parseWeight(fields[2])
		if err != nil {
			return 0, 0, err
		}
	}
	return id, w, nil
}

// parseWeight parses a vertex weight, reporting overflow beyond int64
// explicitly; range validation ([0, MaxWeight]) is the substrate's job.
func parseWeight(b []byte) (int64, error) {
	w, err := parseInt(b, 64)
	if err != nil {
		return 0, numberError("weight", b, "int64", err)
	}
	return w, nil
}

// writeEdgeListWeights emits one "v id w" line per non-unit-weight vertex.
func writeEdgeListWeights(bw *bufio.Writer, weighted bool, n int, weight func(int32) int64) {
	if !weighted {
		return
	}
	for v := 0; v < n; v++ {
		if w := weight(int32(v)); w != 1 {
			fmt.Fprintf(bw, "v %d %d\n", v, w)
		}
	}
}

// parseVertex parses a 0-based vertex id, reporting overflow beyond int32
// explicitly (the dense-id substrates cannot represent larger graphs).
func parseVertex(b []byte) (int32, error) {
	v, err := parseInt(b, 32)
	if err != nil {
		return 0, numberError("vertex id", b, "int32", err)
	}
	return int32(v), nil
}

// numberError words a parseInt failure on field b, a what of Go type typ.
func numberError(what string, b []byte, typ string, err error) error {
	if err == strconv.ErrRange {
		return fmt.Errorf("%s %q overflows %s", what, b, typ)
	}
	return fmt.Errorf("bad %s %q", what, b)
}

// parseInt is strconv.ParseInt(string(b), 10, bits), failing with its
// NumError's strconv.ErrSyntax or strconv.ErrRange. strconv copies its
// input into the error, so the conversion does not escape and a short
// number is parsed without allocating.
func parseInt(b []byte, bits int) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, bits)
	if err != nil {
		return 0, err.(*strconv.NumError).Err // ParseInt's documented error type
	}
	return v, nil
}
