package main

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pslocal"
	"pslocal/internal/core"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
)

func TestMakeInstanceGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, gen := range []string{"planted", "uniform", "interval", "star"} {
		h, err := makeInstance("", gen, 30, 10, 3, 3, 5, rng)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if h.N() != 30 || h.M() != 10 {
			t.Errorf("%s: n=%d m=%d, want 30, 10", gen, h.N(), h.M())
		}
	}
	if _, err := makeInstance("", "nope", 10, 5, 2, 2, 3, rng); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestMakeInstanceFromFile(t *testing.T) {
	h := hypergraph.MustNew(4, [][]int32{{0, 1}, {2, 3}})
	path := filepath.Join(t.TempDir(), "h.hg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := graphio.WriteHypergraph(f, h, graphio.FormatEdgeList); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	back, err := makeInstance(path, "ignored", 0, 0, 0, 0, 0, nil)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if back.N() != 4 || back.M() != 2 {
		t.Errorf("n=%d m=%d, want 4, 2", back.N(), back.M())
	}
	if _, err := makeInstance(filepath.Join(t.TempDir(), "missing"), "", 0, 0, 0, 0, 0, nil); err == nil {
		t.Error("missing file accepted")
	}
}

// TestModeSpellings checks that every documented -oracle spelling — the
// built-ins, a registry name, and a portfolio name — resolves through
// the Solver and reduces a small instance, and that an unknown spelling
// surfaces the typed error.
func TestModeSpellings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, _, err := hypergraph.PlantedCF(20, 8, 2, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"exact", "implicit", "greedy-mindeg",
		"portfolio:greedy-mindeg,greedy-random",
	} {
		sv := pslocal.NewSolver(pslocal.WithK(2), pslocal.WithOracle(name))
		res, err := sv.Solve(context.Background(), h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.K != 2 || len(res.Phases) == 0 {
			t.Errorf("%s: degenerate result %+v", name, res)
		}
	}
	sv := pslocal.NewSolver(pslocal.WithOracle("nope"))
	if _, err := sv.Solve(context.Background(), h); !errors.Is(err, pslocal.ErrUnknownOracle) {
		t.Errorf("unknown mode error = %v, want ErrUnknownOracle", err)
	}
}

// TestTimeoutSurfacesErrCancelled pins the -timeout contract: an expired
// context.WithTimeout deadline surfaces from the Solver as the typed
// ErrCancelled (also matching context.DeadlineExceeded), so the CLI
// reports a clean cancellation instead of running unbounded.
func TestTimeoutSurfacesErrCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, _, err := hypergraph.PlantedCF(20, 8, 2, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // the deadline has certainly expired
	sv := pslocal.NewSolver(pslocal.WithK(2))
	_, err = sv.Solve(ctx, h)
	if !errors.Is(err, pslocal.ErrCancelled) {
		t.Errorf("error = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want to also match context.DeadlineExceeded", err)
	}
}

// TestMakeInstanceFromJSONFile checks that -in accepts the graphio JSON
// format (sniffed from content, whatever the extension).
func TestMakeInstanceFromJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.json")
	doc := `{"type":"hypergraph","n":4,"edges":[[0,1],[2,3]]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := makeInstance(path, "ignored", 0, 0, 0, 0, 0, nil)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if h.N() != 4 || h.M() != 2 {
		t.Errorf("n=%d m=%d, want 4, 2", h.N(), h.M())
	}
}

// TestWriteResult checks the -out path round-trips through graphio.
func TestWriteResult(t *testing.T) {
	h := hypergraph.MustNew(4, [][]int32{{0, 1}, {2, 3}})
	res, err := core.Reduce(nil, h, core.Options{K: 2, Mode: core.ModeImplicitFirstFit})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "res.json")
	if err := writeResult(path, res); err != nil {
		t.Fatalf("writeResult: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := graphio.ReadResult(f)
	if err != nil {
		t.Fatalf("ReadResult: %v", err)
	}
	if back.K != res.K || back.TotalColors != res.TotalColors || len(back.Phases) != len(res.Phases) {
		t.Errorf("result round trip changed the document: %+v vs %+v", back, res)
	}
}

func TestWriteMulticoloring(t *testing.T) {
	mc := pslocal.Multicoloring{{2, 5}, nil, {1}}
	var sb strings.Builder
	if err := writeMulticoloring(&sb, mc); err != nil {
		t.Fatalf("writeMulticoloring error: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"0: 2 5", "1: ", "2: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
