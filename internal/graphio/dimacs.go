package graphio

// dimacs.go implements the DIMACS .col graph-colouring format, the lingua
// franca of published graph instances:
//
//	c  an optional comment
//	p edge <n> <m>
//	n <id> <w>
//	e <u> <v>
//
// Vertices are 1-based in the file and mapped onto the repository's
// 0-based dense ids. "p col" is accepted as a problem-line synonym seen
// in the wild. "n id w" node lines carry vertex weights (the weighted-
// DIMACS convention); the writer emits one per vertex on weighted graphs
// and none otherwise, so unweighted instances round-trip byte-identically.
// Only graphs have a DIMACS representation; hypergraph calls report
// ErrUnsupported at the dispatch layer.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"pslocal/internal/graph"
)

// parseDIMACSGraph parses a DIMACS .col document.
func parseDIMACSGraph(data []byte) (*graph.Graph, error) {
	sc := textScanner{data: data, comment: -1}
	var (
		b     *graph.Builder
		m     int
		edges int
	)
	for fields, ok := sc.next(make([][]byte, 0, 4)); ok; fields, ok = sc.next(fields) {
		if len(fields) == 0 {
			continue
		}
		ln := sc.ln
		line := bytes.TrimSpace(sc.line()) // what error messages quote
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
			if len(fields) != 4 || (string(fields[1]) != "edge" && string(fields[1]) != "col") {
				return nil, fmt.Errorf("%w: line %d: problem line %q, want \"p edge n m\"", ErrFormat, ln, line)
			}
			n64, err1 := parseInt(fields[2], 32)
			m64, err2 := parseInt(fields[3], 64)
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
			if len(fields) != 3 || string(fields[0]) != "n" {
				return nil, fmt.Errorf("%w: line %d: want \"n id w\", got %q", ErrFormat, ln, line)
			}
			id, err1 := parseVertex(fields[1])
			w, err2 := parseWeight(fields[2])
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
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: line %d: want \"e u v\", got %q", ErrFormat, ln, line)
			}
			u, err1 := parseVertex(fields[1])
			v, err2 := parseVertex(fields[2])
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

// writeDIMACSGraph writes g as a DIMACS .col document with 1-based
// vertices; weighted graphs get one "n id w" node line per vertex.
func writeDIMACSGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M())
	if g.Weighted() {
		for v := 0; v < g.N(); v++ {
			fmt.Fprintf(bw, "n %d %d\n", v+1, g.Weight(int32(v)))
		}
	}
	var err error
	g.ForEachEdge(func(u, v int32) bool {
		_, err = fmt.Fprintf(bw, "e %d %d\n", u+1, v+1)
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("graphio: writing DIMACS: %w", err)
	}
	return bw.Flush()
}
