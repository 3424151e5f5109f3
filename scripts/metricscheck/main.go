// Command metricscheck validates a Prometheus text-format exposition
// (version 0.0.4) read from stdin with obs.ParseExposition: HELP/TYPE
// syntax, sample-line parsing, duplicate-series detection, and the
// histogram invariants (cumulative buckets non-decreasing in le, the
// +Inf bucket equal to _count). CI pipes `curl /metrics` from cfserve
// and cfgate through it so the expositions both binaries serve stay
// scrape-valid.
//
//	curl -fsS http://localhost:8355/metrics | go run ./scripts/metricscheck \
//	  -require pslocal_requests_total,pslocal_request_duration_seconds
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pslocal/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
}

func run() error {
	require := flag.String("require", "", "comma-separated metric families that must be present")
	flag.Parse()

	e, err := obs.ParseExposition(os.Stdin)
	if err != nil {
		return err
	}
	if len(e.Samples) == 0 {
		return errors.New("no samples on stdin")
	}
	families := make(map[string]bool) // every family a sample appeared under
	for _, s := range e.Samples {
		families[s.Family] = true
	}
	var missing []string
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name != "" && !families[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required families missing: %s", strings.Join(missing, ", "))
	}
	fmt.Printf("ok: %d samples, %d families, %d histogram series\n", len(e.Samples), len(families), e.HistogramSeries)
	return nil
}
