#!/usr/bin/env bash
# Builds the serving benchmark and the cfserve and cfgate binaries it
# drives from this checkout's source, then runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload hot-direct --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced runs' span files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/" . pslocal/cmd/cfserve pslocal/cmd/cfgate)

cd "$root"
exec "$out/bin/perfbench" --bin-dir "$out/bin" --out-dir "$out" "$@"
