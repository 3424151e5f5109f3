// Command psctab regenerates the reproduction's experiment tables
// (E1–E15), figure-equivalents (F1–F3) and ablations (A1–A3) — the
// DESIGN.md Section 4 index. A non-zero exit status means a paper claim
// failed on the generated grid.
//
// Usage:
//
//	psctab                 # everything
//	psctab -only E4,F1     # a subset
//	psctab -quick -seed 7  # small grids, different seed
//	psctab -only E13 -oracle portfolio:greedy-mindeg,clique-removal -workers 0
//	psctab -quick -out tables.txt
//
// -out writes the rendered tables to a file instead of stdout, so
// experiment pipelines can archive a run next to its instances.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pslocal/internal/engine"
	"pslocal/internal/experiments"
	"pslocal/internal/maxis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "psctab:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		seed    = flag.Int64("seed", 1, "random seed for all grids (the default shared by cfreduce and pscgen)")
		quick   = flag.Bool("quick", false, "use the reduced benchmark grids")
		only    = flag.String("only", "", "comma-separated subset, e.g. E1,E4,F2,A1 (empty = all)")
		workers = flag.Int("workers", 1, "portfolio workers (0 = GOMAXPROCS)")
		oracle  = flag.String("oracle", "",
			"portfolio oracle raced by E13, portfolio:<a>,<b>,... (empty = E13 default)")
		outFile = flag.String("out", "", "write the rendered tables to this file instead of stdout")
		timeout = flag.Duration("timeout", 0, "abandon the run after this long, e.g. 5m (0 = unbounded)")
	)
	flag.Parse()
	var w io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if err := validateOracle(*oracle, *seed); err != nil {
		return err
	}
	// The grids run under a signal context, so Ctrl-C cancels the current
	// experiment's construction and portfolio solves cooperatively;
	// -timeout bounds the whole run through the same path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	eng := engine.FromWorkersFlag(*workers)
	eng.Ctx = ctx
	cfg := experiments.Config{
		Seed:   *seed,
		Quick:  *quick,
		Engine: eng,
		Oracle: *oracle,
	}

	gens := generators()
	want := parseOnly(*only)
	var failures []string
	printed := 0
	for _, g := range gens {
		if len(want) > 0 && !want[g.id] {
			continue
		}
		if printed > 0 {
			fmt.Fprintln(w)
		}
		tab, err := g.fn(cfg)
		if tab != nil {
			if rerr := tab.Render(w); rerr != nil {
				return rerr
			}
			printed++
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", g.id, err))
		}
	}
	if printed == 0 {
		return fmt.Errorf("no experiment matched -only=%q", *only)
	}
	if len(failures) > 0 {
		return fmt.Errorf("claims failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// gen pairs an experiment id with its generator.
type gen struct {
	id string
	fn func(experiments.Config) (*experiments.Table, error)
}

// generators returns the DESIGN.md Section 4 index in rendering order:
// E1–E15, F1–F3, A1–A3.
func generators() []gen {
	return []gen{
		{"E1", experiments.E1ConflictGraphSize},
		{"E2", experiments.E2Lemma21a},
		{"E3", experiments.E3Lemma21b},
		{"E4", experiments.E4PhaseDecay},
		{"E5", experiments.E5ColorBudget},
		{"E6", experiments.E6Containment},
		{"E7", experiments.E7OracleQuality},
		{"E8", experiments.E8ModelBaselines},
		{"E9", experiments.E9NetDecomp},
		{"E10", experiments.E10IntervalCF},
		{"E11", experiments.E11DistributedPipeline},
		{"E12", experiments.E12CompleteSiblings},
		{"E13", experiments.E13PortfolioPhases},
		{"E14", experiments.E14BitsetKernels},
		{"E15", experiments.E15WeightedOracles},
		{"F1", experiments.F1DecayCurve},
		{"F2", experiments.F2LocalityHistogram},
		{"F3", experiments.F3LambdaVsDensity},
		{"A1", experiments.A1ImplicitVsExplicit},
		{"A2", experiments.A2CliqueBound},
		{"A3", experiments.A3OrderSensitivity},
	}
}

// generatorIDs returns the experiment ids in rendering order.
func generatorIDs() []string {
	gens := generators()
	ids := make([]string, len(gens))
	for i, g := range gens {
		ids[i] = g.id
	}
	return ids
}

// validateOracle fails fast on a bad -oracle value so the whole suite is
// not run before E13 finally rejects it. Empty selects the E13 default.
func validateOracle(name string, seed int64) error {
	if name == "" {
		return nil
	}
	if !strings.HasPrefix(name, "portfolio:") {
		return fmt.Errorf("-oracle %q is not a portfolio:<a>,<b>,... name", name)
	}
	if _, err := maxis.Lookup(name, seed); err != nil {
		return fmt.Errorf("-oracle: %w", err)
	}
	return nil
}

// parseOnly turns the -only flag into the wanted-id set: comma-separated,
// case-insensitive, whitespace-tolerant. Empty input selects everything
// (an empty map).
func parseOnly(only string) map[string]bool {
	want := map[string]bool{}
	if only == "" {
		return want
	}
	for _, id := range strings.Split(only, ",") {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	return want
}
