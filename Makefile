# Developer entry points; CI runs the same steps (.github/workflows/ci.yml).

.PHONY: build test race vet fmt api api-update bench bench-quick load-smoke cluster-smoke

build:
	go build ./...

# api compares the exported facade surface against the checked-in golden
# api.txt; api-update blesses a reviewed surface change.
api:
	./scripts/apicheck.sh

api-update:
	./scripts/apicheck.sh -update

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

# bench runs the hot-path benchmarks and appends this run to the
# BENCH_gk.json history (keyed by git SHA) so successive PRs have a perf
# trajectory. bench-quick is the CI mode (one iteration, twenty for the
# alloc-gated benchmarks), same schema.
bench:
	./scripts/bench.sh

bench-quick:
	BENCH_QUICK=1 ./scripts/bench.sh

# load-smoke drives a small cfload burst against a live cfserve, checks
# the SLO report and the /metrics latency histograms, and verifies replay
# determinism. Pass/fail only: it writes no benchmark numbers.
load-smoke:
	./scripts/loadsmoke.sh

# cluster-smoke stands up three cfserve nodes sharing a job store behind
# cfgate, proves affinity routing beats a round-robin control on
# cache-hit ratio, and SIGTERMs one node mid-burst with zero failed
# requests. Pass/fail only: it writes no benchmark numbers.
cluster-smoke:
	./scripts/clustersmoke.sh
