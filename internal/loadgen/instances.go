package loadgen

// instances.go materializes the per-request instance bodies. A trace
// never stores raw instance bytes: each record carries an InstSpec — the
// pscgen-style generator directive plus its own seed — and the body is
// regenerated deterministically on demand. That keeps traces small and
// byte-stable, and makes "the same instance again" (the cache-hit
// mechanism) literally the same bytes, hence the same server-side
// content hash.

import (
	"bytes"
	"fmt"
	"math/rand"

	"pslocal/internal/graph"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
)

// Instance kinds.
const (
	KindGraph      = "graph"
	KindHypergraph = "hypergraph"
)

// InstSpec is a deterministic instance directive: generator name, size
// parameters and the instance's own seed. Two equal specs always
// materialize to identical bytes in a given format.
type InstSpec struct {
	Kind   string  `json:"kind"`
	Gen    string  `json:"gen"`
	N      int     `json:"n"`
	M      int     `json:"m,omitempty"`
	K      int     `json:"k,omitempty"`
	SizeLo int     `json:"size_lo,omitempty"`
	SizeHi int     `json:"size_hi,omitempty"`
	P      float64 `json:"p,omitempty"`
	Seed   int64   `json:"seed"`
}

// validate checks the generator directive without materializing it.
func (s InstSpec) validate() error {
	switch s.Kind {
	case KindGraph:
		switch s.Gen {
		case "gnp", "grid", "cycle", "tree":
		default:
			return fmt.Errorf("%w: unknown graph generator %q (want gnp|grid|cycle|tree)", ErrSpec, s.Gen)
		}
	case KindHypergraph:
		switch s.Gen {
		case "planted", "uniform", "interval", "star":
		default:
			return fmt.Errorf("%w: unknown hypergraph generator %q (want planted|uniform|interval|star)", ErrSpec, s.Gen)
		}
	default:
		return fmt.Errorf("%w: unknown instance kind %q (want graph|hypergraph)", ErrSpec, s.Kind)
	}
	if s.N <= 0 {
		return fmt.Errorf("%w: instance n must be positive (got %d)", ErrSpec, s.N)
	}
	return nil
}

// instFormat is one instance in one wire format: the unit Plan reuses
// and the unit a request body is built from. Equal pairs always build
// identical bytes.
type instFormat struct {
	inst   InstSpec
	format string
}

// Build materializes the instance in the given wire format. The same
// spec and format always yield identical bytes.
func (s InstSpec) Build(format string) ([]byte, error) {
	f, err := graphio.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var buf bytes.Buffer
	switch s.Kind {
	case KindGraph:
		var g *graph.Graph
		switch s.Gen {
		case "gnp":
			g = graph.GnP(s.N, s.P, rng)
		case "grid":
			g = graph.Grid(s.N, max(s.M, 1))
		case "cycle":
			g = graph.Cycle(s.N)
		case "tree":
			g = graph.RandomTree(s.N, rng)
		}
		if err := graphio.WriteGraph(&buf, g, f); err != nil {
			return nil, err
		}
	case KindHypergraph:
		var h *hypergraph.Hypergraph
		switch s.Gen {
		case "planted":
			h, _, err = hypergraph.PlantedCF(s.N, s.M, max(s.K, 2), max(s.SizeLo, 2), max(s.SizeHi, 3), rng)
		case "uniform":
			h, err = hypergraph.Uniform(s.N, s.M, max(s.SizeLo, 2), rng)
		case "interval":
			h, err = hypergraph.Interval(s.N, s.M, 2, max(s.SizeHi, 3), rng)
		case "star":
			h, err = hypergraph.Star(s.N, s.M, max(s.SizeLo, 2), rng)
		}
		if err != nil {
			return nil, err
		}
		if err := graphio.WriteHypergraph(&buf, h, f); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// builtBody is one materialized request body, or the error building it.
type builtBody struct {
	b   []byte
	err error
}

// buildBodies materializes every record's body before the first
// dispatch, so no request's clock covers generating one; records that
// share an (instance, format) pair share one build.
func buildBodies(t *Trace) []builtBody {
	built := make(map[instFormat]builtBody)
	bodies := make([]builtBody, len(t.Records))
	for i := range t.Records {
		key := instFormat{t.Records[i].Inst, t.Records[i].Format}
		b, ok := built[key]
		if !ok {
			b.b, b.err = key.inst.Build(key.format)
			built[key] = b
		}
		bodies[i] = b
	}
	return bodies
}
