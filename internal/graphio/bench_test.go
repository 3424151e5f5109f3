package graphio

import (
	"bytes"
	"math/rand"
	"testing"

	"pslocal/internal/graph"
)

// BenchmarkReadGraphEdgeListDense parses the cold /v1/maxis body of the
// serving benchmark: G(512, 0.3) as an edge list, about 39,000 edge
// lines and 300 KB. scripts/bench.sh alloc-gates it, so a per-line
// allocation in the tokenizer fails the merge.
func BenchmarkReadGraphEdgeListDense(b *testing.B) {
	var buf bytes.Buffer
	g := graph.GnP(512, 0.3, rand.New(rand.NewSource(1)))
	if err := WriteGraph(&buf, g, FormatEdgeList); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	// One read before the timed loop keeps first-call allocations out of
	// the count, so the gate reads the same at -benchtime=1x.
	if _, err := ReadGraph(bytes.NewReader(body), FormatEdgeList); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		got, err := ReadGraph(bytes.NewReader(body), FormatEdgeList)
		if err != nil {
			b.Fatal(err)
		}
		if got.M() != g.M() {
			b.Fatalf("read %d edges, want %d", got.M(), g.M())
		}
	}
}
