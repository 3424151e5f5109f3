#!/bin/sh
# Runs the hot-path benchmarks (conflict-graph construction, edge-list
# parsing, reduction, oracle portfolio, SLOCAL simulator, Moser-Tardos
# splitting, span recording) and appends
# the results to the perf trajectory (default BENCH_gk.json): a stable
# {"schema":1,"history":[...]} document with one entry per run, keyed by
# git SHA (suffixed "-dirty" when the tree has uncommitted changes), so
# the cross-PR trajectory accumulates instead of being overwritten
# (scripts/benchmerge does the parsing and merging). Usage:
# scripts/bench.sh [output.json]; BENCH_QUICK=1 selects the 1-iteration
# CI mode, flagged in the entry so quick numbers are never mistaken for
# full measurements.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_gk.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

benchtime=""
quickflag=""
if [ "${BENCH_QUICK:-0}" = "1" ]; then
  benchtime="-benchtime=1x"
  quickflag="-quick"
fi

# No pipes around go test: plain sh has no pipefail, and a masked bench
# failure must not record a partial trajectory entry.
# shellcheck disable=SC2086  # benchtime is intentionally word-split
go test -run '^$' \
  -bench 'ConflictGraphBuild|ImplicitFirstFit|FirstFitScratch|ReduceImplicit|PortfolioOracle|BallCarving|NetworkDecomposition|SLOCALGreedyMIS|SolverReduce' \
  -benchmem -count=1 $benchtime . > "$tmp"
go test -run '^$' -bench 'MoserTardosLongResampling' -benchmem -count=1 $benchtime \
  ./internal/splitting/ >> "$tmp"
go test -run '^$' -bench 'OracleKernels|BipartiteExact|GreedyWeightedDense' -benchmem -count=1 $benchtime \
  ./internal/maxis/ >> "$tmp"
go test -run '^$' -bench 'SolverCacheHitAllocs|SolverMaxISReaderHot' -benchmem -count=1 $benchtime \
  ./internal/solver/ >> "$tmp"
go test -run '^$' -bench 'SpanRecord' -benchmem -count=1 $benchtime \
  ./internal/obs/ >> "$tmp"
go test -run '^$' -bench 'ReadGraphEdgeListDense|ReadHypergraphJSONCold' -benchmem -count=1 $benchtime \
  ./internal/graphio/ >> "$tmp"
cat "$tmp"

sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git diff-index --quiet HEAD -- 2>/dev/null; then
  sha="${sha}-dirty"
fi
# The alloc gate holds the zero-allocation serve line, the cold edge-list
# parse's line of no per-line allocations, the cold JSON parse's count,
# and the cold serve path that materialises G_k (SolverReduceColdOracle,
# run by the SolverReduce pattern above): if allocs/op on a gated
# benchmark grows vs the recorded trajectory, the merge fails.
# shellcheck disable=SC2086  # quickflag is intentionally word-split
go run ./scripts/benchmerge -out "$out" -sha "$sha" $quickflag \
  -alloc-gate 'SolverCacheHitAllocs|SolverMaxISReaderHot|SpanRecord|ReadGraphEdgeListDense|ReadHypergraphJSONCold|SolverReduceColdOracle' < "$tmp"
echo "wrote $out"
