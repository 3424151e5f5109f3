// Quickstart: generate a conflict-free-colourable hypergraph, run the
// paper's Theorem 1.1 reduction through Solvers configured with four
// different MaxIS strategies, and verify that every output is a
// conflict-free multicolouring.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"pslocal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))

	// A hypergraph with 60 vertices and 24 almost-uniform edges that is
	// guaranteed to admit a conflict-free 3-colouring (the planted one).
	h, planted, err := pslocal.PlantedCF(60, 24, 3, 3, 5, rng)
	if err != nil {
		return err
	}
	fmt.Printf("instance: %v (planted conflict-free 3-colouring exists: %v)\n",
		h, pslocal.IsConflictFree(h, planted))

	// A Solver is configured once and carries its strategy through every
	// call; WithOracle takes the same names the -oracle CLI flags and
	// cfserve query parameters accept, and a "portfolio:" name races
	// several registry oracles per phase on the worker pool.
	ctx := context.Background()
	configs := []struct {
		name   string
		solver *pslocal.Solver
	}{
		{"exact oracle (λ=1)", pslocal.NewSolver(pslocal.WithK(3), pslocal.WithOracle("exact"))},
		{"implicit first-fit", pslocal.NewSolver(pslocal.WithK(3))},
		{"min-degree greedy", pslocal.NewSolver(pslocal.WithK(3), pslocal.WithOracle("greedy-mindeg"))},
		{"oracle portfolio", pslocal.NewSolver(pslocal.WithK(3), pslocal.WithWorkers(0),
			pslocal.WithOracle("portfolio:greedy-mindeg,greedy-random,clique-removal"))},
	}
	for _, cfg := range configs {
		res, err := cfg.solver.Solve(ctx, h)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		if err := pslocal.VerifyReduction(h, res); err != nil {
			return fmt.Errorf("%s failed verification: %w", cfg.name, err)
		}
		fmt.Printf("%-22s phases=%d  colours=%d  (paper bound ρ·k with λ=1: %d)\n",
			cfg.name, len(res.Phases), res.TotalColors, 3*pslocal.PhaseBound(1, h.M()))
	}
	fmt.Println("all reductions verified conflict-free ✓")
	return nil
}
