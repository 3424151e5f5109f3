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
//     any number of vertices).
//
// Every reader parses from one byte slice: ParseGraph and
// ParseHypergraph take the body a caller already holds (the Solver
// parses the buffer it read and hashed), and ReadGraph/ReadHypergraph
// read their io.Reader into one buffer first. The text readers split
// lines and fields in place, in a single pass over the bytes, so a
// well-formed text body allocates only the parsed int32 edge data the
// graph builders need anyway; the JSON reader decodes the body token by
// token. The parsed instance never aliases the input. Readers are
// strict: headers must match the data, node counts must not exceed
// MaxNodes, vertex ids must fit in int32, and duplicate graph edges are
// reported as ErrDuplicateEdge rather than silently merged, because a
// mismatch at a service boundary (cmd/cfserve) is better rejected than
// papered over. Writers produce output that round-trips bit-identically
// through the matching reader; fuzz and property tests in this package
// pin that down.
//
// The reduction pipeline's result type (core.Result) has a JSON
// serialization here too (WriteResult/ReadResult), so the CLI -out flags,
// the pslocal facade and cmd/cfserve all speak the same schema.
package graphio

import (
	"bytes"
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
	// ErrTooLarge reports a node count above MaxNodes. It is a kind of
	// ErrFormat: errors matching it match ErrFormat too.
	ErrTooLarge = fmt.Errorf("%w: too many nodes", ErrFormat)
)

// MaxNodes is the largest node count the readers accept. A header's
// count sizes per-node arrays before any edge is read, so without a
// limit a body of a few bytes could claim two billion nodes and exhaust
// memory. An edgeless graph on many nodes is valid input, so the count
// cannot be checked against the body's length; it is checked against
// this fixed limit instead, and a larger count fails with ErrTooLarge.
const MaxNodes = 1 << 22

// checkNodeCount enforces MaxNodes on a node count read from the input.
func checkNodeCount(n int64) error {
	if n > MaxNodes {
		return fmt.Errorf("%w: %d, limit %d", ErrTooLarge, n, MaxNodes)
	}
	return nil
}

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

// ReadGraph reads r to the end into one buffer and parses it with
// ParseGraph. A failed read is returned wrapped, never as ErrFormat.
func ReadGraph(r io.Reader, f Format) (*graph.Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return ParseGraph(data, f)
}

// ParseGraph parses a graph from data in the given format (FormatAuto
// sniffs). The graph does not alias data.
func ParseGraph(data []byte, f Format) (*graph.Graph, error) {
	f, err := resolveFormat(data, f)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatEdgeList:
		return parseEdgeListGraph(data)
	case FormatDIMACS:
		return parseDIMACSGraph(data)
	case FormatJSON:
		return parseJSONGraph(data)
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

// ReadHypergraph reads r to the end into one buffer and parses it with
// ParseHypergraph. A failed read is returned wrapped, never as ErrFormat.
func ReadHypergraph(r io.Reader, f Format) (*hypergraph.Hypergraph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return ParseHypergraph(data, f)
}

// ParseHypergraph parses a hypergraph from data in the given format
// (FormatAuto sniffs). DIMACS input is rejected with ErrUnsupported. The
// hypergraph does not alias data.
func ParseHypergraph(data []byte, f Format) (*hypergraph.Hypergraph, error) {
	f, err := resolveFormat(data, f)
	if err != nil {
		return nil, err
	}
	switch f {
	case FormatEdgeList:
		return parseEdgeListHypergraph(data)
	case FormatDIMACS:
		return nil, fmt.Errorf("%w: hypergraphs have no DIMACS representation", ErrUnsupported)
	case FormatJSON:
		return parseJSONHypergraph(data)
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

// readAll reads r to the end. A source that reports its unread length
// (bytes.Reader, strings.Reader, bytes.Buffer) is read into one
// allocation of exactly that size plus the byte the final io.EOF read
// needs; other sources grow the buffer as io.ReadAll does.
func readAll(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok && l.Len() >= 0 {
		size = l.Len() + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("graphio: reading input: %w", err)
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// resolveFormat returns f unchanged unless it is FormatAuto, in which
// case it sniffs the format from the start of data.
func resolveFormat(data []byte, f Format) (Format, error) {
	if f != FormatAuto {
		return f, nil
	}
	return sniffFormat(data)
}

// sniffWindow is how far into the input sniffFormat looks.
const sniffWindow = 4096

// sniffFormat classifies data by the first decisive line within its first
// sniffWindow bytes: '{' opens JSON, "c"/"p" lines are DIMACS,
// "graph"/"hypergraph" headers and '#' comments are the edge list. A
// line cut by the window's end is classified as cut.
func sniffFormat(data []byte) (Format, error) {
	if len(data) == 0 {
		return FormatAuto, fmt.Errorf("%w: empty input", ErrFormat)
	}
	rest := data[:min(len(data), sniffWindow)]
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		switch {
		case line[0] == '{':
			return FormatJSON, nil
		case line[0] == '#':
			return FormatEdgeList, nil
		case string(line) == "c" || bytes.HasPrefix(line, []byte("c ")) || bytes.HasPrefix(line, []byte("p ")):
			return FormatDIMACS, nil
		case bytes.HasPrefix(line, []byte("graph ")) || bytes.HasPrefix(line, []byte("hypergraph ")):
			return FormatEdgeList, nil
		default:
			return FormatAuto, fmt.Errorf("%w: unrecognised input starting %q", ErrUnknownFormat, line)
		}
	}
	return FormatAuto, fmt.Errorf("%w: no decisive line in the first %d bytes", ErrUnknownFormat, sniffWindow)
}
