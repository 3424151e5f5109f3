package maxis

// registry.go implements the named oracle registry (DESIGN.md, "Execution
// engine"): solvers self-register under stable string names so commands,
// experiments and future multi-backend deployments select oracles by
// configuration instead of compile-time wiring.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownOracle reports a Lookup name with no registered factory;
// callers branch on it with errors.Is instead of matching the message
// (cmd/cfserve maps it to HTTP 400).
var ErrUnknownOracle = errors.New("maxis: unknown oracle")

// portfolioPrefix introduces composite oracle names: "portfolio:<a>,<b>"
// resolves to a Portfolio racing the named members.
const portfolioPrefix = "portfolio:"

// Factory constructs an Oracle. Deterministic oracles ignore seed;
// randomized oracles use it to initialise their private stream.
type Factory func(seed int64) Oracle

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
}{factories: make(map[string]Factory)}

// Register adds a named oracle factory. Empty names, duplicate
// registrations, and names that collide with the portfolio syntax
// (a "portfolio:" prefix or a comma) are errors.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("maxis: Register with empty oracle name")
	}
	if strings.HasPrefix(name, portfolioPrefix) || strings.Contains(name, ",") {
		return fmt.Errorf("maxis: oracle name %q collides with the portfolio syntax", name)
	}
	if f == nil {
		return fmt.Errorf("maxis: Register(%q) with nil factory", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		return fmt.Errorf("maxis: oracle %q registered twice", name)
	}
	registry.factories[name] = f
	return nil
}

// MustRegister is Register for init-time wiring; it panics on error.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// Lookup constructs the named oracle, passing seed to its factory. Names
// of the form "portfolio:<a>,<b>,..." resolve to a Portfolio over the
// named members, member i seeded seed+i so identically-named randomized
// members decorrelate (member 0 keeps seed, so a single-member portfolio
// is bit-identical to that member). Unknown names report the registered
// alternatives.
func Lookup(name string, seed int64) (Oracle, error) {
	if strings.HasPrefix(name, portfolioPrefix) {
		return lookupPortfolio(name, seed)
	}
	registry.RLock()
	f, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownOracle, name, Names())
	}
	return f(seed), nil
}

// lookupPortfolio resolves a "portfolio:<a>,<b>,..." name. Portfolios do
// not nest.
func lookupPortfolio(name string, seed int64) (Oracle, error) {
	spec := strings.TrimPrefix(name, portfolioPrefix)
	parts := strings.Split(spec, ",")
	members := make([]Oracle, 0, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("maxis: portfolio %q has an empty member", name)
		}
		if strings.HasPrefix(part, portfolioPrefix) {
			return nil, fmt.Errorf("maxis: portfolios do not nest (%q)", name)
		}
		o, err := Lookup(part, seed+int64(i))
		if err != nil {
			return nil, err
		}
		members = append(members, o)
	}
	return NewPortfolio(members...)
}

// Names returns the registered oracle names in ascending order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The built-in suite registers under the Name() strings of its oracles.
func init() {
	MustRegister("exact", func(int64) Oracle { return ExactOracle{} })
	MustRegister("greedy-mindeg", func(int64) Oracle { return MinDegreeOracle{} })
	MustRegister("greedy-mindeg-bitset", func(int64) Oracle { return MinDegreeBitsetOracle{} })
	MustRegister("greedy-firstfit", func(int64) Oracle { return FirstFitOracle{} })
	MustRegister("greedy-random", func(seed int64) Oracle { return &RandomOrderOracle{Seed: seed} })
	MustRegister("clique-removal", func(int64) Oracle { return CliqueRemovalOracle{} })
	MustRegister("bipartite-exact", func(int64) Oracle { return BipartiteOracle{} })
}
