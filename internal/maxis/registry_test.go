package maxis

import (
	"errors"
	"testing"

	"pslocal/internal/graph"
)

func TestRegistryBuiltins(t *testing.T) {
	want := []string{"bipartite-exact", "clique-removal", "exact", "greedy-firstfit",
		"greedy-mindeg", "greedy-mindeg-bitset", "greedy-random"}
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("built-in %q missing from Names() = %v", n, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not strictly sorted: %v", names)
		}
	}
}

func TestLookupReturnsWorkingOracles(t *testing.T) {
	g := graph.Cycle(7)
	for _, name := range Names() {
		o, err := Lookup(name, 42)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if o.Name() == "" {
			t.Errorf("oracle %q has empty Name()", name)
		}
		set, err := o.Solve(g)
		if errors.Is(err, ErrInapplicable) {
			// Conditional oracles (bipartite-exact on the odd cycle C7) may
			// decline the instance; that is their contract, not a failure.
			continue
		}
		if err != nil {
			t.Fatalf("oracle %q Solve: %v", name, err)
		}
		if !IsIndependentSet(g, set) {
			t.Errorf("oracle %q returned a dependent set %v", name, set)
		}
		if len(set) == 0 {
			t.Errorf("oracle %q returned an empty set on C7", name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-oracle", 0); err == nil {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestLookupPortfolioNames(t *testing.T) {
	o, err := Lookup("portfolio:greedy-mindeg, greedy-random ,clique-removal", 9)
	if err != nil {
		t.Fatalf("portfolio lookup: %v", err)
	}
	p, ok := o.(*Portfolio)
	if !ok {
		t.Fatalf("portfolio lookup returned %T", o)
	}
	if got, want := p.Name(), "portfolio:greedy-mindeg,greedy-random,clique-removal"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
	if len(p.Members()) != 3 {
		t.Errorf("members = %d, want 3", len(p.Members()))
	}
	set, err := o.Solve(graph.Cycle(7))
	if err != nil {
		t.Fatalf("portfolio Solve: %v", err)
	}
	if !IsIndependentSet(graph.Cycle(7), set) || len(set) != 3 {
		t.Errorf("portfolio on C7 returned %v, want a maximum IS of size 3", set)
	}
}

func TestLookupPortfolioRejectsBadSpecs(t *testing.T) {
	for _, name := range []string{
		"portfolio:",                        // no members
		"portfolio:greedy-mindeg,,exact",    // empty member
		"portfolio:no-such-oracle",          // unknown member
		"portfolio:portfolio:greedy-mindeg", // nesting
	} {
		if _, err := Lookup(name, 0); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", name)
		}
	}
}

func TestRegisterRejectsPortfolioCollisions(t *testing.T) {
	f := func(int64) Oracle { return FirstFitOracle{} }
	if err := Register("portfolio:sneaky", f); err == nil {
		t.Error("Register with portfolio: prefix succeeded")
	}
	if err := Register("a,b", f); err == nil {
		t.Error("Register with comma succeeded")
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	if err := Register("", func(int64) Oracle { return FirstFitOracle{} }); err == nil {
		t.Error("Register with empty name succeeded")
	}
	if err := Register("exact", func(int64) Oracle { return ExactOracle{} }); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register("test-only-oracle", nil); err == nil {
		t.Error("Register with nil factory succeeded")
	}
	if err := Register("test-only-oracle", func(int64) Oracle { return FirstFitOracle{} }); err != nil {
		t.Errorf("fresh Register failed: %v", err)
	}
	t.Cleanup(func() {
		registry.Lock()
		delete(registry.factories, "test-only-oracle")
		registry.Unlock()
	})
	o, err := Lookup("test-only-oracle", 0)
	if err != nil || o.Name() != "greedy-firstfit" {
		t.Errorf("Lookup of fresh registration: %v, %v", o, err)
	}
}
