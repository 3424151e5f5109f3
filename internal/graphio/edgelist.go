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
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// parseEdgeListGraph parses the "graph n m" text format.
func parseEdgeListGraph(data []byte) (*graph.Graph, error) {
	sc := textScanner{data: data, comment: '#'}
	n, m, err := readEdgeListHeader(&sc, "graph")
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(n)
	b.EdgeCapacityHint(edgeHint(m))
	edges := 0
	var declared map[int32]bool
	for fields, ok := sc.next(make([][]byte, 0, 4)); ok; fields, ok = sc.next(fields) {
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "v" {
			id, w, err := parseVertexDecl(fields, n)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, sc.ln, err)
			}
			if declared == nil {
				declared = make(map[int32]bool)
			}
			if declared[id] {
				return nil, fmt.Errorf("%w: line %d: vertex %d declared twice", ErrFormat, sc.ln, id)
			}
			declared[id] = true
			b.SetWeight(id, w)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%w: line %d: want \"u v\", got %q", ErrFormat, sc.ln, sc.line())
		}
		u, err1 := parseVertex(fields[0])
		v, err2 := parseVertex(fields[1])
		if err1 != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, sc.ln, err1)
		}
		if err2 != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, sc.ln, err2)
		}
		b.AddEdge(u, v)
		edges++
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

// parseEdgeListHypergraph parses the "hypergraph n m" text format.
func parseEdgeListHypergraph(data []byte) (*hypergraph.Hypergraph, error) {
	sc := textScanner{data: data, comment: '#'}
	n, m, err := readEdgeListHeader(&sc, "hypergraph")
	if err != nil {
		return nil, err
	}
	// Edges go back to back into one flat array, ends[j] closing edge j;
	// hypergraph.NewWeighted copies each edge out of it.
	var flat []int32
	ends := make([]int, 0, edgeHint(m))
	var ws []int64
	var declared map[int32]bool
	for fields, ok := sc.next(make([][]byte, 0, 8)); ok; fields, ok = sc.next(fields) {
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "v" {
			id, w, err := parseVertexDecl(fields, n)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, sc.ln, err)
			}
			if declared == nil {
				declared = make(map[int32]bool)
			}
			if declared[id] {
				return nil, fmt.Errorf("%w: line %d: vertex %d declared twice", ErrFormat, sc.ln, id)
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
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, sc.ln, err)
			}
			flat = append(flat, v)
		}
		ends = append(ends, len(flat))
	}
	if len(ends) != m {
		return nil, fmt.Errorf("%w: header promises %d edges, found %d", ErrFormat, m, len(ends))
	}
	h, err := hypergraph.NewWeighted(n, splitFlat(flat, ends), ws)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return h, nil
}

// splitFlat cuts back-to-back edges into per-edge views of flat: edge j
// is flat[ends[j-1]:ends[j]].
func splitFlat(flat []int32, ends []int) [][]int32 {
	edges := make([][]int32, len(ends))
	start := 0
	for j, end := range ends {
		edges[j] = flat[start:end]
		start = end
	}
	return edges
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
// "<kind> <n> <m>" header and returns n and m.
func readEdgeListHeader(sc *textScanner, kind string) (n, m int, err error) {
	for fields, ok := sc.next(make([][]byte, 0, 4)); ok; fields, ok = sc.next(fields) {
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 || string(fields[0]) != kind {
			return 0, 0, fmt.Errorf("%w: line %d: header %q, want %q n m", ErrFormat, sc.ln, sc.line(), kind)
		}
		n, err1 := parseInt(fields[1], strconv.IntSize)
		m, err2 := parseInt(fields[2], strconv.IntSize)
		if err1 != nil || err2 != nil || n < 0 || m < 0 {
			return 0, 0, fmt.Errorf("%w: line %d: header %q", ErrFormat, sc.ln, sc.line())
		}
		if err := checkNodeCount(n); err != nil {
			return 0, 0, err
		}
		return int(n), int(m), nil
	}
	return 0, 0, fmt.Errorf("%w: missing %q header", ErrFormat, kind)
}

// textScanner walks a text body line by line, splitting each line into
// fields in the same pass over its bytes. Lines end where
// bufio.ScanLines ends them: at each '\n', with one '\r' before it
// dropped, and at the end of the body unless the body ends in '\n'.
// Fields are the runs between Unicode white space, split exactly where
// strings.Fields splits (bytes that are not valid UTF-8 belong to
// fields), and stop at the comment byte.
type textScanner struct {
	data []byte
	// comment is the byte that starts a comment running to the end of
	// the line, or -1 when the format has none: every byte value,
	// including NUL, is ordinary input.
	comment int
	pos     int // offset of the first byte not yet scanned
	ln      int // lines scanned so far: the current line's number
	start   int // the current line is data[start:end]
	end     int
}

// next scans the next line and returns its fields, reusing dst's array;
// the fields alias the body. ok is false at the end of the body.
func (s *textScanner) next(dst [][]byte) (fields [][]byte, ok bool) {
	data, i, comment := s.data, s.pos, s.comment
	if i >= len(data) {
		return dst[:0], false
	}
	fields = dst[:0]
	s.start = i
	field := -1 // first byte of the field being scanned, -1 between fields
	for i < len(data) {
		c := data[i]
		if c == '\n' {
			break
		}
		if int(c) == comment {
			if field >= 0 {
				fields = append(fields, data[field:i])
				field = -1
			}
			if j := bytes.IndexByte(data[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(data)
			}
			break
		}
		space, size := asciiSpace[c], 1
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(data[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if field < 0 {
				field = i
			}
		} else if field >= 0 {
			fields = append(fields, data[field:i])
			field = -1
		}
		i += size
	}
	if field >= 0 {
		fields = append(fields, data[field:i])
	}
	s.end = i
	if i > s.start && data[i-1] == '\r' {
		s.end--
	}
	if i < len(data) {
		i++ // the '\n'
	}
	s.pos = i
	s.ln++
	return fields, true
}

// line returns the line the last next call scanned, comment included.
func (s *textScanner) line() []byte { return s.data[s.start:s.end] }

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

// parseInt is strconv.ParseInt(string(b), 10, bits) over the bytes, for
// bits >= 32: an optional sign, then decimal digits. It fails with
// strconv.ErrSyntax or strconv.ErrRange exactly where ParseInt does,
// with ParseInt's overflow checks: a digit that overflows the bits-wide
// unsigned range reports ErrRange even when a later byte is not a digit.
func parseInt(b []byte, bits int) (int64, error) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, strconv.ErrSyntax
	}
	maxVal := uint64(1)<<uint(bits) - 1
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, strconv.ErrSyntax
		}
		if n >= math.MaxUint64/10+1 {
			return 0, strconv.ErrRange // n*10 overflows
		}
		n *= 10
		n1 := n + uint64(d)
		if n1 < n || n1 > maxVal {
			return 0, strconv.ErrRange
		}
		n = n1
	}
	cutoff := uint64(1) << uint(bits-1)
	if !neg && n >= cutoff || neg && n > cutoff {
		return 0, strconv.ErrRange
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}
