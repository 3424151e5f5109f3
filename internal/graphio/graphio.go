// Package graphio is the graph I/O subsystem: parsing and serialization
// of the repository's two instance substrates — graph.Graph and
// hypergraph.Hypergraph — in three interchangeable formats, selected by a
// Format value or sniffed from the input itself:
//
//   - FormatEdgeList: the repository's native plain-text format
//     ("graph n m" / "hypergraph n m" header, one edge per line, '#'
//     comments), compatible with the legacy plain-text instance files;
//   - FormatDIMACS: the DIMACS .col graph-colouring format ("c" comments,
//     "p edge n m" problem line, 1-based "e u v" edge lines) — graphs
//     only, hypergraphs have no DIMACS representation;
//   - FormatJSON: a single-object JSON document
//     {"type":"graph","n":N,"edges":[[u,v],...]} (hypergraph edges carry
//     any number of vertices), decoded token by token.
//
// Every reader streams: input is consumed line by line (or JSON token by
// token) through a fixed-size buffer, so the raw text is never held in
// memory — only the parsed int32 edge data, which the graph builders need
// anyway. Readers are strict: headers must match the data, vertex ids
// must fit in int32, and duplicate graph edges are reported as
// ErrDuplicateEdge rather than silently merged, because a mismatch at a
// service boundary (cmd/cfserve) is better rejected than papered over.
// Writers produce output that round-trips bit-identically through the
// matching reader; fuzz and property tests in this package pin that down.
//
// The reduction pipeline's result type (core.Result) has a JSON
// serialization here too (WriteResult/ReadResult), so the CLI -out flags,
// the pslocal facade and cmd/cfserve all speak the same schema.
package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pslocal/internal/graph"
	"pslocal/internal/hypergraph"
)

// Errors reported by the readers and writers.
var (
	// ErrFormat reports malformed input: bad headers, unparsable lines,
	// counts that contradict the data, or vertex ids outside int32.
	ErrFormat = errors.New("graphio: malformed input")
	// ErrDuplicateEdge reports a graph input listing the same undirected
	// edge twice (in either orientation). Graph inputs must be
	// duplicate-free; hypergraph inputs may repeat hyperedges, which are
	// semantically redundant but harmless.
	ErrDuplicateEdge = errors.New("graphio: duplicate edge")
	// ErrUnsupported reports a format/substrate combination with no
	// representation, e.g. a hypergraph in DIMACS.
	ErrUnsupported = errors.New("graphio: unsupported format")
	// ErrUnknownFormat reports a format name or sniffed input that matches
	// no supported format.
	ErrUnknownFormat = errors.New("graphio: unknown format")
)

// Format identifies a supported instance encoding.
type Format int

const (
	// FormatAuto sniffs the format from the first non-blank line of the
	// input ('{' → JSON, "c"/"p" → DIMACS, "graph"/"hypergraph"/'#' →
	// edge list). Writers treat it as FormatEdgeList.
	FormatAuto Format = iota
	// FormatEdgeList is the native plain-text format.
	FormatEdgeList
	// FormatDIMACS is the DIMACS .col graph format (graphs only).
	FormatDIMACS
	// FormatJSON is the single-object JSON document format.
	FormatJSON
)

// String returns the canonical flag spelling of f.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatEdgeList:
		return "edgelist"
	case FormatDIMACS:
		return "dimacs"
	case FormatJSON:
		return "json"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat maps a flag or query-parameter spelling onto a Format. The
// empty string selects FormatAuto.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return FormatAuto, nil
	case "edgelist", "edge-list", "el", "text":
		return FormatEdgeList, nil
	case "dimacs", "col":
		return FormatDIMACS, nil
	case "json":
		return FormatJSON, nil
	default:
		return FormatAuto, fmt.Errorf("%w: %q (want auto|edgelist|dimacs|json)", ErrUnknownFormat, s)
	}
}

// FormatFromPath guesses a format from a file extension: .col/.dimacs →
// DIMACS, .json → JSON, .g/.hg/.el/.txt → edge list, anything else →
// FormatAuto (readers sniff, writers default to the edge list).
func FormatFromPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".col", ".dimacs":
		return FormatDIMACS
	case ".json":
		return FormatJSON
	case ".g", ".hg", ".el", ".txt":
		return FormatEdgeList
	default:
		return FormatAuto
	}
}

// ReadGraph parses a graph from r in the given format (FormatAuto
// sniffs). The input streams through a line or token buffer; the raw text
// is never held in memory.
func ReadGraph(r io.Reader, f Format) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	f, err := resolveFormat(br, f)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatEdgeList:
		return readEdgeListGraph(br)
	case FormatDIMACS:
		return readDIMACSGraph(br)
	case FormatJSON:
		return readJSONGraph(br)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownFormat, f)
	}
}

// WriteGraph writes g to w in the given format (FormatAuto selects the
// edge list). The output round-trips bit-identically through ReadGraph.
func WriteGraph(w io.Writer, g *graph.Graph, f Format) error {
	switch f {
	case FormatAuto, FormatEdgeList:
		return writeEdgeListGraph(w, g)
	case FormatDIMACS:
		return writeDIMACSGraph(w, g)
	case FormatJSON:
		return writeJSONGraph(w, g)
	default:
		return fmt.Errorf("%w: %v", ErrUnknownFormat, f)
	}
}

// ReadHypergraph parses a hypergraph from r in the given format
// (FormatAuto sniffs). DIMACS input is rejected with ErrUnsupported.
func ReadHypergraph(r io.Reader, f Format) (*hypergraph.Hypergraph, error) {
	br := bufio.NewReader(r)
	f, err := resolveFormat(br, f)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatEdgeList:
		return readEdgeListHypergraph(br)
	case FormatDIMACS:
		return nil, fmt.Errorf("%w: hypergraphs have no DIMACS representation", ErrUnsupported)
	case FormatJSON:
		return readJSONHypergraph(br)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownFormat, f)
	}
}

// WriteHypergraph writes h to w in the given format (FormatAuto selects
// the edge list). DIMACS is rejected with ErrUnsupported.
func WriteHypergraph(w io.Writer, h *hypergraph.Hypergraph, f Format) error {
	switch f {
	case FormatAuto, FormatEdgeList:
		return writeEdgeListHypergraph(w, h)
	case FormatDIMACS:
		return fmt.Errorf("%w: hypergraphs have no DIMACS representation", ErrUnsupported)
	case FormatJSON:
		return writeJSONHypergraph(w, h)
	default:
		return fmt.Errorf("%w: %v", ErrUnknownFormat, f)
	}
}

// ReadGraphFile reads a graph from path, sniffing the format from the
// content (the extension is not trusted on the read path).
func ReadGraphFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGraph(f, FormatAuto)
}

// WriteGraphFile writes g to path in the format implied by the extension
// (FormatFromPath; unknown extensions get the edge list).
func WriteGraphFile(path string, g *graph.Graph) (err error) {
	return writeFile(path, func(w io.Writer) error {
		return WriteGraph(w, g, FormatFromPath(path))
	})
}

// ReadHypergraphFile reads a hypergraph from path, sniffing the format
// from the content.
func ReadHypergraphFile(path string) (*hypergraph.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadHypergraph(f, FormatAuto)
}

// WriteHypergraphFile writes h to path in the format implied by the
// extension.
func WriteHypergraphFile(path string, h *hypergraph.Hypergraph) error {
	return writeFile(path, func(w io.Writer) error {
		return WriteHypergraph(w, h, FormatFromPath(path))
	})
}

// writeFile funnels the Write*File helpers through one create/flush/close
// sequence that reports the first error.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// resolveFormat returns f unchanged unless it is FormatAuto, in which
// case it sniffs the format from the buffered reader without consuming
// input.
func resolveFormat(br *bufio.Reader, f Format) (Format, error) {
	if f != FormatAuto {
		return f, nil
	}
	return sniffFormat(br)
}

// sniffFormat peeks at the start of the input and classifies it by the
// first decisive line: '{' opens JSON, "c"/"p" lines are DIMACS,
// "graph"/"hypergraph" headers and '#' comments are the edge list.
func sniffFormat(br *bufio.Reader) (Format, error) {
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

// newScanner wraps br with the line scanner shared by the text formats:
// a 64 KiB initial buffer growing to 16 MiB for pathological lines.
func newScanner(br *bufio.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}
