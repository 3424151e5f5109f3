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
	"fmt"
	"io"
	"strconv"
	"strings"

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
	b.EdgeCapacityHint(m)
	edges := 0
	var declared map[int32]bool
	for sc.Scan() {
		ln++
		fields, skip := splitEdgeListLine(sc.Text())
		if skip {
			continue
		}
		if fields[0] == "v" {
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
	edges := make([][]int32, 0, m)
	var ws []int64
	var declared map[int32]bool
	for sc.Scan() {
		ln++
		fields, skip := splitEdgeListLine(sc.Text())
		if skip {
			continue
		}
		if fields[0] == "v" {
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
		edge := make([]int32, 0, len(fields))
		for _, f := range fields {
			v, err := parseVertex(f)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, ln, err)
			}
			edge = append(edge, v)
		}
		edges = append(edges, edge)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: reading hypergraph: %w", err)
	}
	if len(edges) != m {
		return nil, fmt.Errorf("%w: header promises %d edges, found %d", ErrFormat, m, len(edges))
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
	for sc.Scan() {
		ln++
		fields, skip := splitEdgeListLine(sc.Text())
		if skip {
			continue
		}
		if len(fields) != 3 || fields[0] != kind {
			return 0, 0, ln, fmt.Errorf("%w: line %d: header %q, want %q n m", ErrFormat, ln, sc.Text(), kind)
		}
		n, err1 := strconv.Atoi(fields[1])
		m, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || n < 0 || m < 0 {
			return 0, 0, ln, fmt.Errorf("%w: line %d: header %q", ErrFormat, ln, sc.Text())
		}
		return n, m, ln, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, ln, fmt.Errorf("graphio: reading header: %w", err)
	}
	return 0, 0, ln, fmt.Errorf("%w: missing %q header", ErrFormat, kind)
}

// splitEdgeListLine tokenises a line; skip is true for blanks and '#'
// comments.
func splitEdgeListLine(line string) (fields []string, skip bool) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields = strings.Fields(line)
	return fields, len(fields) == 0
}

// parseVertexDecl parses a "v id [w]" vertex-declaration line (the weight
// column defaults to 1) and range-checks the id against n.
func parseVertexDecl(fields []string, n int) (id int32, w int64, err error) {
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
func parseWeight(s string) (int64, error) {
	w, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			return 0, fmt.Errorf("weight %q overflows int64", s)
		}
		return 0, fmt.Errorf("bad weight %q", s)
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
func parseVertex(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
			return 0, fmt.Errorf("vertex id %q overflows int32", s)
		}
		return 0, fmt.Errorf("bad vertex id %q", s)
	}
	return int32(v), nil
}
