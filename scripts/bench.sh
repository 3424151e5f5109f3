#!/bin/sh
# Runs the hot-path benchmarks (conflict-graph construction, edge-list
# parsing, reduction incl. a multi-phase one, oracle portfolio, SLOCAL
# simulator, Moser-Tardos splitting, span recording, the Solver's cache
# and answer hits) and appends
# the results to the perf trajectory (default BENCH_gk.json): a stable
# {"schema":1,"history":[...]} document with one entry per run, keyed by
# git SHA (suffixed "-dirty" when the tree has uncommitted changes), so
# the cross-PR trajectory accumulates instead of being overwritten
# (scripts/benchmerge does the parsing and merging). Usage:
# scripts/bench.sh [output.json]; BENCH_QUICK=1 selects the CI mode (one
# iteration per benchmark, twenty for the alloc-gated ones), flagged in
# the entry so quick numbers are never mistaken for full measurements.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_gk.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

benchtime=""
gatetime=""
quickflag=""
if [ "${BENCH_QUICK:-0}" = "1" ]; then
  benchtime="-benchtime=1x"
  # A single iteration counts a pool refilled after a GC as a per-op
  # allocation, so the benchmarks the alloc gate reads average over 20.
  gatetime="-benchtime=20x"
  quickflag="-quick"
fi

# No pipes around go test: plain sh has no pipefail, and a masked bench
# failure must not record a partial trajectory entry.
# shellcheck disable=SC2086  # benchtime/gatetime are intentionally word-split
go test -run '^$' \
  -bench 'ConflictGraphBuild|ImplicitFirstFit|FirstFitScratch|ReduceImplicit|ReduceMultiPhase|PortfolioOracle|BallCarving|NetworkDecomposition|SLOCALGreedyMIS|SolverReduceCold$|SolverReduceCacheHit' \
  -benchmem -count=1 $benchtime . > "$tmp"
go test -run '^$' -bench 'SolverReduceColdOracle' -benchmem -count=1 $gatetime . >> "$tmp"
go test -run '^$' -bench 'MoserTardosLongResampling' -benchmem -count=1 $benchtime \
  ./internal/splitting/ >> "$tmp"
go test -run '^$' -bench 'OracleKernels|BipartiteExact|GreedyWeightedDense' -benchmem -count=1 $benchtime \
  ./internal/maxis/ >> "$tmp"
go test -run '^$' -bench 'SolverCacheHitAllocs|SolverMaxISReaderHot|SolverAnswerHit' -benchmem -count=1 $gatetime \
  ./internal/solver/ >> "$tmp"
go test -run '^$' -bench 'SpanRecord' -benchmem -count=1 $gatetime \
  ./internal/obs/ >> "$tmp"
go test -run '^$' -bench 'ReadGraphEdgeListDense|ReadHypergraphJSONCold' -benchmem -count=1 $gatetime \
  ./internal/graphio/ >> "$tmp"
cat "$tmp"

sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git diff-index --quiet HEAD -- 2>/dev/null; then
  sha="${sha}-dirty"
fi
# The alloc gate holds the zero-allocation serve line, the answer hit's
# one allocation (the returned Instance), the cold edge-list parse's
# line of no per-line allocations, the cold JSON parse's count, and the
# cold serve path that materialises G_k (SolverReduceColdOracle): if
# allocs/op on a gated benchmark grows vs the recorded trajectory, the
# merge fails. Every benchmark this pattern matches runs at $gatetime.
# shellcheck disable=SC2086  # quickflag is intentionally word-split
go run ./scripts/benchmerge -out "$out" -sha "$sha" $quickflag \
  -alloc-gate 'SolverCacheHitAllocs|SolverMaxISReaderHot|SolverAnswerHit|SpanRecord|ReadGraphEdgeListDense|ReadHypergraphJSONCold|SolverReduceColdOracle' < "$tmp"
echo "wrote $out"
