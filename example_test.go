package pslocal_test

// Testable examples for the godoc of the public facade. Deterministic
// seeds make the outputs stable.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"pslocal"
)

// ExampleNewSolver shows the context-first entry point: one Solver
// configured once carries the palette, oracle, worker pool and seed
// through every call, and solves both substrates (hypergraph reduction
// and graph MaxIS) through the same handle.
func ExampleNewSolver() {
	rng := rand.New(rand.NewSource(7))
	h, _, err := pslocal.PlantedCF(60, 24, 3, 3, 5, rng)
	if err != nil {
		fmt.Println("generator:", err)
		return
	}
	sv := pslocal.NewSolver(
		pslocal.WithK(3),
		pslocal.WithOracle("greedy-mindeg"),
		pslocal.WithWorkers(0), // GOMAXPROCS, the CLI -workers convention
	)
	ctx := context.Background()
	res, err := sv.Solve(ctx, h)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("phases:", len(res.Phases))
	fmt.Println("verified:", pslocal.VerifyReduction(h, res) == nil)

	is, err := sv.MaxIS(ctx, pslocal.Grid(4, 5))
	if err != nil {
		fmt.Println("maxis:", err)
		return
	}
	fmt.Println("|I|:", len(is.Set))
	// Output:
	// phases: 1
	// verified: true
	// |I|: 10
}

// ExampleSolver_SolveReader feeds a serialized instance straight into the
// Solver: the body is cached by content hash, so resubmitting the same
// bytes skips parsing (the mechanism behind cmd/cfserve's hot-instance
// path).
func ExampleSolver_SolveReader() {
	const doc = `{"type":"hypergraph","n":4,"edges":[[0,1,2],[1,2,3]]}`
	sv := pslocal.NewSolver(pslocal.WithK(2), pslocal.WithCache(16))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		res, inst, err := sv.SolveReader(ctx, strings.NewReader(doc), pslocal.FormatAuto)
		if err != nil {
			fmt.Println("solve:", err)
			return
		}
		fmt.Printf("run %d: cache hit %v, colours %d\n", i+1, inst.CacheHit, res.TotalColors)
	}
	// Output:
	// run 1: cache hit false, colours 2
	// run 2: cache hit true, colours 2
}

// ExampleColoringToIS demonstrates the Lemma 2.1(a) correspondence: a
// conflict-free colouring induces one conflict-graph triple per edge.
func ExampleColoringToIS() {
	h, err := pslocal.NewHypergraph(4, [][]int32{{0, 1, 2}, {1, 2, 3}})
	if err != nil {
		fmt.Println("hypergraph:", err)
		return
	}
	ix, err := pslocal.NewConflictIndex(h, 2)
	if err != nil {
		fmt.Println("index:", err)
		return
	}
	f := pslocal.Coloring{1, 2, 2, 1} // conflict-free: vertex 0 unique in e0, vertex 3 in e1
	is, err := pslocal.ColoringToIS(ix, f)
	if err != nil {
		fmt.Println("mapping:", err)
		return
	}
	fmt.Println("independent set size:", len(is))
	fmt.Println("first triple:", is[0])
	// Output:
	// independent set size: 2
	// first triple: (e0,v0,c1)
}

// ExampleWithCarving shows the containment direction: a Solver switched
// onto ball carving returns a (1+δ)-approximate maximum independent set
// with logarithmic locality.
func ExampleWithCarving() {
	g := pslocal.Grid(4, 5)
	ctx := context.Background()
	res, err := pslocal.NewSolver(pslocal.WithCarving(1.0)).MaxIS(ctx, g)
	if err != nil {
		fmt.Println("carving:", err)
		return
	}
	opt, err := pslocal.NewSolver(pslocal.WithOracle("exact")).MaxIS(ctx, g)
	if err != nil {
		fmt.Println("exact:", err)
		return
	}
	fmt.Println("alpha:", len(opt.Set))
	fmt.Println("carved at least half:", 2*len(res.Set) >= len(opt.Set))
	fmt.Println("locality within bound:", res.Locality <= res.RadiusBound)
	// Output:
	// alpha: 10
	// carved at least half: true
	// locality within bound: true
}

// ExampleDyadicIntervalColoring colours line vertices so every interval
// hypergraph is conflict-free.
func ExampleDyadicIntervalColoring() {
	c := pslocal.DyadicIntervalColoring(7)
	fmt.Println(c)
	// Output:
	// [3 2 3 1 3 2 3]
}

// ExampleReadGraph parses a DIMACS .col document (the format published
// graph instances use) into the repository's CSR graph. FormatAuto
// sniffs the same input without being told the format.
func ExampleReadGraph() {
	const doc = `c a 5-cycle
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
`
	g, err := pslocal.ReadGraph(strings.NewReader(doc), pslocal.FormatDIMACS)
	if err != nil {
		fmt.Println("read:", err)
		return
	}
	fmt.Println(g)
	fmt.Println("edge {0,4}:", g.HasEdge(0, 4))
	// Output:
	// graph(n=5, m=5)
	// edge {0,4}: true
}

// ExampleNewOraclePortfolio races three oracles on the same graph and
// keeps the largest independent set; a Solver forwards its worker pool
// to the portfolio so one -workers setting drives the whole phase loop.
func ExampleNewOraclePortfolio() {
	members := make([]pslocal.Oracle, 0, 3)
	for _, name := range []string{"greedy-mindeg", "greedy-random", "clique-removal"} {
		o, err := pslocal.LookupOracle(name, 1)
		if err != nil {
			fmt.Println("lookup:", err)
			return
		}
		members = append(members, o)
	}
	p, err := pslocal.NewOraclePortfolio(members...)
	if err != nil {
		fmt.Println("portfolio:", err)
		return
	}
	fmt.Println("racing:", p.Name())

	g := pslocal.Grid(4, 5)
	set, err := p.Solve(g)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("|I|:", len(set))
	fmt.Println("independent:", pslocal.VerifyIndependentSet(g, set) == nil)
	// Output:
	// racing: portfolio:greedy-mindeg,greedy-random,clique-removal
	// |I|: 10
	// independent: true
}
