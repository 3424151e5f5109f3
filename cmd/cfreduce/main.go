// Command cfreduce runs the Theorem 1.1 reduction — conflict-free
// multicolouring via iterated approximate maximum independent set — on a
// generated or file-based hypergraph and reports per-phase statistics.
//
// Usage examples:
//
//	cfreduce -gen planted -n 60 -m 24 -k 3 -oracle exact
//	cfreduce -gen interval -n 80 -m 40 -print-coloring
//	cfreduce -in instance.hg -k 2 -oracle greedy-mindeg -seed 7 -workers 0
//	cfreduce -in instance.json -out result.json
//	cfreduce -oracle portfolio:greedy-mindeg,greedy-random,clique-removal -workers 0
//
// -oracle names the strategy, as pslocal.WithOracle does: the built-ins
// `implicit` (the default) and `exact`, any oracle name of the maxis
// registry, or a portfolio:<a>,<b>,... name that races several oracles
// per phase; -oracle help lists them. -workers sets the worker pool of
// portfolio solving (0 = GOMAXPROCS, 1 = serial); conflict-graph
// construction is serial.
//
// The command is a thin shell over a pslocal.Solver: the flags become
// solver options, the solve runs under a signal context, so Ctrl-C
// cancels a long reduction cooperatively instead of killing the process
// mid-write.
//
// -in accepts any internal/graphio format (the native edge list, DIMACS
// for graphs, or JSON), sniffed from the content; -out writes the
// reduction result as the graphio JSON document ("-" for stdout), the
// same schema cmd/cfserve responds with.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"pslocal"
	"pslocal/internal/graphio"
	"pslocal/internal/hypergraph"
	"pslocal/internal/verify"

	"math/rand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cfreduce:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		genName = flag.String("gen", "planted", "instance generator: planted | uniform | interval | star")
		inFile  = flag.String("in", "", "read hypergraph from file instead of generating (edge-list/DIMACS/JSON, sniffed)")
		outFile = flag.String("out", "", "write the reduction result as JSON to this file (\"-\" = stdout)")
		n       = flag.Int("n", 60, "vertices")
		m       = flag.Int("m", 24, "hyperedges")
		k       = flag.Int("k", 3, "palette size per phase")
		sizeLo  = flag.Int("size-lo", 3, "minimum edge size (planted/uniform)")
		sizeHi  = flag.Int("size-hi", 5, "maximum edge size (planted/interval)")
		oracle  = flag.String("oracle", "implicit",
			"strategy: implicit | exact | a registry oracle name | portfolio:<a>,<b>,... | help to list")
		seed     = flag.Int64("seed", 1, "random seed (instance generation and randomized oracles)")
		workers  = flag.Int("workers", 1, "portfolio workers (0 = GOMAXPROCS)")
		printCol = flag.Bool("print-coloring", false, "dump the multicolouring")
		timeout  = flag.Duration("timeout", 0, "abandon the reduction after this long, e.g. 30s (0 = unbounded)")
	)
	flag.Parse()

	if *oracle == "help" {
		names := []string{"implicit", "exact"}
		for _, name := range pslocal.OracleNames() {
			if name != "exact" { // the built-in exact strategy already covers it (with the clique hint)
				names = append(names, name)
			}
		}
		names = append(names, "portfolio:<a>,<b>,...")
		fmt.Printf("strategies: %s\n", strings.Join(names, ", "))
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		// An expired -timeout surfaces from the Solver as ErrCancelled
		// (matching context.DeadlineExceeded), the same cooperative path
		// Ctrl-C takes — no mid-write kill, no unbounded run.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rng := rand.New(rand.NewSource(*seed))
	h, err := makeInstance(*inFile, *genName, *n, *m, *k, *sizeLo, *sizeHi, rng)
	if err != nil {
		return err
	}
	sv := pslocal.NewSolver(
		pslocal.WithK(*k),
		pslocal.WithSeed(*seed),
		pslocal.WithWorkers(*workers),
		pslocal.WithOracle(*oracle),
	)
	fmt.Printf("instance: %v\n", h)
	res, err := sv.Solve(ctx, h)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-8s %-10s %-8s %-8s\n", "phase", "edges", "G_k nodes", "|I|", "removed")
	for _, ph := range res.Phases {
		fmt.Printf("%-6d %-8d %-10d %-8d %-8d\n",
			ph.Phase, ph.EdgesBefore, ph.ConflictNodes, ph.ISSize, ph.HappyRemoved)
	}
	fmt.Printf("phases: %d, total colours: %d (k=%d per phase)\n",
		len(res.Phases), res.TotalColors, res.K)

	var report verify.Report
	report.Add("multicolouring conflict-free", verify.ConflictFreeMulti(h, res.Multicoloring))
	report.Add("phase bookkeeping", verify.ReductionBookkeeping(h, res))
	fmt.Print(report.String())
	if !report.OK() {
		return report.Err()
	}
	if *printCol {
		if err := writeMulticoloring(os.Stdout, res.Multicoloring); err != nil {
			return err
		}
	}
	if *outFile != "" {
		if err := writeResult(*outFile, res); err != nil {
			return err
		}
	}
	return nil
}

// writeMulticoloring writes mc as "v: c1 c2 ..." lines for human review
// (uncoloured vertices are written with an empty colour list).
func writeMulticoloring(w io.Writer, mc pslocal.Multicoloring) error {
	bw := bufio.NewWriter(w)
	for v, cols := range mc {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = strconv.Itoa(int(c))
		}
		if _, err := fmt.Fprintf(bw, "%d: %s\n", v, strings.Join(parts, " ")); err != nil {
			return fmt.Errorf("writing multicolouring: %w", err)
		}
	}
	return bw.Flush()
}

// writeResult dumps the result document to path, or stdout for "-".
func writeResult(path string, res *pslocal.ReduceResult) error {
	if path == "-" {
		return graphio.WriteResult(os.Stdout, res)
	}
	return graphio.WriteResultFile(path, res)
}

func makeInstance(inFile, gen string, n, m, k, sizeLo, sizeHi int, rng *rand.Rand) (*hypergraph.Hypergraph, error) {
	if inFile != "" {
		return graphio.ReadHypergraphFile(inFile)
	}
	switch gen {
	case "planted":
		h, _, err := hypergraph.PlantedCF(n, m, k, sizeLo, sizeHi, rng)
		return h, err
	case "uniform":
		return hypergraph.Uniform(n, m, sizeLo, rng)
	case "interval":
		return hypergraph.Interval(n, m, 2, sizeHi, rng)
	case "star":
		return hypergraph.Star(n, m, sizeLo, rng)
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}
