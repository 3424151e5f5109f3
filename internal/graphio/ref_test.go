package graphio

// ref_test.go keeps the streaming text readers that ParseGraph and
// ParseHypergraph replaced as the reference the in-place readers are
// held to (FuzzReadMatchesReference): bufio.Scanner over the lines, with
// strconv.ParseInt numbers. Apart from the ref prefix on their names and
// the MaxNodes check after each node count, the code is as it was;
// numberError, edgeHint, asciiSpace and checkNodeCount are shared with
// the readers under test. JSON has no separate reference: its decoder
// walk is unchanged and now decodes the body it is given.

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

// refReadGraph parses a graph from r in the given format (FormatAuto
// sniffs), streaming the input through a line or token buffer.
func refReadGraph(r io.Reader, f Format) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	f, err := refResolveFormat(br, f)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatEdgeList:
		return refReadEdgeListGraph(br)
	case FormatDIMACS:
		return refReadDIMACSGraph(br)
	case FormatJSON:
		// The JSON reader is the one under test: only how its body
		// arrives changed.
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		return parseJSONGraph(data)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownFormat, f)
	}
}

// refReadHypergraph parses a hypergraph from r in the given format
// (FormatAuto sniffs). DIMACS input is rejected with ErrUnsupported.
func refReadHypergraph(r io.Reader, f Format) (*hypergraph.Hypergraph, error) {
	br := bufio.NewReader(r)
	f, err := refResolveFormat(br, f)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatEdgeList:
		return refReadEdgeListHypergraph(br)
	case FormatDIMACS:
		return nil, fmt.Errorf("%w: hypergraphs have no DIMACS representation", ErrUnsupported)
	case FormatJSON:
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		return parseJSONHypergraph(data)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownFormat, f)
	}
}

// refResolveFormat returns f unchanged unless it is FormatAuto, in which
// case it sniffs the format from the buffered reader without consuming
// input.
func refResolveFormat(br *bufio.Reader, f Format) (Format, error) {
	if f != FormatAuto {
		return f, nil
	}
	return refSniffFormat(br)
}

// refSniffFormat peeks at the start of the input and classifies it by the
// first decisive line: '{' opens JSON, "c"/"p" lines are DIMACS,
// "graph"/"hypergraph" headers and '#' comments are the edge list.
func refSniffFormat(br *bufio.Reader) (Format, error) {
	const window = 4096
	buf, err := br.Peek(window)
	if len(buf) == 0 {
		if err != nil && err != io.EOF {
			return FormatAuto, err
		}
		return FormatAuto, fmt.Errorf("%w: empty input", ErrFormat)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case line[0] == '{':
			return FormatJSON, nil
		case line[0] == '#':
			return FormatEdgeList, nil
		case line == "c" || strings.HasPrefix(line, "c ") || strings.HasPrefix(line, "p "):
			return FormatDIMACS, nil
		case strings.HasPrefix(line, "graph ") || strings.HasPrefix(line, "hypergraph "):
			return FormatEdgeList, nil
		default:
			return FormatAuto, fmt.Errorf("%w: unrecognised input starting %q", ErrUnknownFormat, line)
		}
	}
	return FormatAuto, fmt.Errorf("%w: no decisive line in the first %d bytes", ErrUnknownFormat, window)
}

// refNewScanner wraps br with the line scanner shared by the text formats:
// a 64 KiB initial buffer growing to 16 MiB for pathological lines.
func refNewScanner(br *bufio.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

// refReadEdgeListGraph parses the "graph n m" text format.
func refReadEdgeListGraph(br *bufio.Reader) (*graph.Graph, error) {
	sc := refNewScanner(br)
	n, m, ln, err := refReadEdgeListHeader(sc, "graph")
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
		fields = refSplitEdgeListLine(fields, sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "v" {
			id, w, err := refParseVertexDecl(fields, n)
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
		u, err1 := refParseVertex(fields[0])
		v, err2 := refParseVertex(fields[1])
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

// refReadEdgeListHypergraph parses the "hypergraph n m" text format.
func refReadEdgeListHypergraph(br *bufio.Reader) (*hypergraph.Hypergraph, error) {
	sc := refNewScanner(br)
	n, m, ln, err := refReadEdgeListHeader(sc, "hypergraph")
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
		fields = refSplitEdgeListLine(fields, sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		if string(fields[0]) == "v" {
			id, w, err := refParseVertexDecl(fields, n)
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
			v, err := refParseVertex(f)
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

// refReadEdgeListHeader consumes lines up to and including the
// "<kind> <n> <m>" header and returns n, m and the number of lines read.
func refReadEdgeListHeader(sc *bufio.Scanner, kind string) (n, m, ln int, err error) {
	fields := make([][]byte, 0, 4)
	for sc.Scan() {
		ln++
		fields = refSplitEdgeListLine(fields, sc.Bytes())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 || string(fields[0]) != kind {
			return 0, 0, ln, fmt.Errorf("%w: line %d: header %q, want %q n m", ErrFormat, ln, sc.Text(), kind)
		}
		n, err1 := refParseInt(fields[1], strconv.IntSize)
		m, err2 := refParseInt(fields[2], strconv.IntSize)
		if err1 != nil || err2 != nil || n < 0 || m < 0 {
			return 0, 0, ln, fmt.Errorf("%w: line %d: header %q", ErrFormat, ln, sc.Text())
		}
		if err := checkNodeCount(n); err != nil {
			return 0, 0, ln, err
		}
		return int(n), int(m), ln, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, ln, fmt.Errorf("graphio: reading header: %w", err)
	}
	return 0, 0, ln, fmt.Errorf("%w: missing %q header", ErrFormat, kind)
}

// refSplitEdgeListLine tokenises line into dst, reusing its array: the
// fields before any '#' comment, as refAppendFields splits them. Blank and
// comment-only lines have no fields.
func refSplitEdgeListLine(dst [][]byte, line []byte) [][]byte {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return refAppendFields(dst[:0], line)
}

// refAppendFields appends line's fields to dst: the runs between Unicode
// white space, split exactly where strings.Fields splits (bytes that are
// not valid UTF-8 belong to fields). The fields alias line.
func refAppendFields(dst [][]byte, line []byte) [][]byte {
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

// refParseVertexDecl parses a "v id [w]" vertex-declaration line (the weight
// column defaults to 1) and range-checks the id against n.
func refParseVertexDecl(fields [][]byte, n int) (id int32, w int64, err error) {
	if len(fields) != 2 && len(fields) != 3 {
		return 0, 0, fmt.Errorf("want \"v id [w]\", got %d fields", len(fields))
	}
	id, err = refParseVertex(fields[1])
	if err != nil {
		return 0, 0, err
	}
	if id < 0 || int(id) >= n {
		return 0, 0, fmt.Errorf("vertex %d out of range [0,%d)", id, n)
	}
	w = 1
	if len(fields) == 3 {
		w, err = refParseWeight(fields[2])
		if err != nil {
			return 0, 0, err
		}
	}
	return id, w, nil
}

// refParseWeight parses a vertex weight, reporting overflow beyond int64
// explicitly; range validation ([0, MaxWeight]) is the substrate's job.
func refParseWeight(b []byte) (int64, error) {
	w, err := refParseInt(b, 64)
	if err != nil {
		return 0, numberError("weight", b, "int64", err)
	}
	return w, nil
}

// refParseVertex parses a 0-based vertex id, reporting overflow beyond int32
// explicitly (the dense-id substrates cannot represent larger graphs).
func refParseVertex(b []byte) (int32, error) {
	v, err := refParseInt(b, 32)
	if err != nil {
		return 0, numberError("vertex id", b, "int32", err)
	}
	return int32(v), nil
}

// refParseInt is strconv.ParseInt(string(b), 10, bits), failing with its
// NumError's strconv.ErrSyntax or strconv.ErrRange. strconv copies its
// input into the error, so the conversion does not escape and a short
// number is parsed without allocating.
func refParseInt(b []byte, bits int) (int64, error) {
	v, err := strconv.ParseInt(string(b), 10, bits)
	if err != nil {
		return 0, err.(*strconv.NumError).Err // ParseInt's documented error type
	}
	return v, nil
}

// refReadDIMACSGraph parses a DIMACS .col document.
func refReadDIMACSGraph(br *bufio.Reader) (*graph.Graph, error) {
	sc := refNewScanner(br)
	var (
		b      *graph.Builder
		m      int
		edges  int
		ln     int
		fields = make([][]byte, 0, 4)
	)
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		switch line[0] {
		case 'c':
			if len(line) == 1 || line[1] == ' ' || line[1] == '\t' {
				continue
			}
			return nil, fmt.Errorf("%w: line %d: unrecognised line %q", ErrFormat, ln, line)
		case 'p':
			if b != nil {
				return nil, fmt.Errorf("%w: line %d: second problem line", ErrFormat, ln)
			}
			fields = refAppendFields(fields[:0], line)
			if len(fields) != 4 || (string(fields[1]) != "edge" && string(fields[1]) != "col") {
				return nil, fmt.Errorf("%w: line %d: problem line %q, want \"p edge n m\"", ErrFormat, ln, line)
			}
			n64, err1 := refParseInt(fields[2], 32)
			m64, err2 := refParseInt(fields[3], 64)
			if err1 != nil || err2 != nil || n64 < 0 || m64 < 0 {
				return nil, fmt.Errorf("%w: line %d: problem line %q", ErrFormat, ln, line)
			}
			if err := checkNodeCount(n64); err != nil {
				return nil, err
			}
			m = int(m64)
			b = graph.NewBuilder(int(n64))
			b.EdgeCapacityHint(edgeHint(m))
		case 'n':
			if b == nil {
				return nil, fmt.Errorf("%w: line %d: node line before the problem line", ErrFormat, ln)
			}
			fields = refAppendFields(fields[:0], line)
			if len(fields) != 3 || string(fields[0]) != "n" {
				return nil, fmt.Errorf("%w: line %d: want \"n id w\", got %q", ErrFormat, ln, line)
			}
			id, err1 := refParseVertex(fields[1])
			w, err2 := refParseWeight(fields[2])
			if err1 != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err1)
			}
			if err2 != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err2)
			}
			if id < 1 {
				return nil, fmt.Errorf("%w: line %d: DIMACS vertices are 1-based, got %q", ErrFormat, ln, line)
			}
			b.SetWeight(id-1, w)
		case 'e':
			if b == nil {
				return nil, fmt.Errorf("%w: line %d: edge before the problem line", ErrFormat, ln)
			}
			fields = refAppendFields(fields[:0], line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: want \"e u v\", got %q", ErrFormat, ln, line)
			}
			u, err1 := refParseVertex(fields[1])
			v, err2 := refParseVertex(fields[2])
			if err1 != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err1)
			}
			if err2 != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err2)
			}
			if u < 1 || v < 1 {
				return nil, fmt.Errorf("%w: line %d: DIMACS vertices are 1-based, got %q", ErrFormat, ln, line)
			}
			b.AddEdge(u-1, v-1)
			edges++
		default:
			return nil, fmt.Errorf("%w: line %d: unrecognised line %q", ErrFormat, ln, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: reading DIMACS: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("%w: missing \"p edge n m\" problem line", ErrFormat)
	}
	if edges != m {
		return nil, fmt.Errorf("%w: problem line promises %d edges, found %d", ErrFormat, m, edges)
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
