#!/bin/sh
# End-to-end load smoke: build cfserve and cfload, fire a small mixed
# burst (reduce + maxis + async jobs, every wire format) at a live
# server, check the SLO report and the latency histograms on /metrics
# are populated, and replay the recorded trace twice requiring
# byte-identical summaries (the determinism contract). Pass/fail only;
# it writes no benchmark numbers (perfbench is the serving benchmark).
# Usage: scripts/loadsmoke.sh
set -eu
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/cfserve" ./cmd/cfserve
go build -o "$work/cfload" ./cmd/cfload

addr=127.0.0.1:8357
"$work/cfserve" -addr "$addr" &
server_pid=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$addr/healthz" >/dev/null

# Recorded burst: the built-in three-class mix covers /v1/reduce,
# /v1/maxis and /v1/jobs across edgelist, dimacs and json bodies.
"$work/cfload" -addr "http://$addr" -requests 60 -rate 500 -seed 7 \
  -hit-ratio 0.5 -record "$work/burst.trace" -perf-out "$work/perf.json" \
  > "$work/summary.json"

jq -e '.ok == 60 and .failed == 0' "$work/summary.json" >/dev/null
jq -e '.by_endpoint.reduce > 0 and .by_endpoint.maxis > 0 and .by_endpoint.jobs > 0' \
  "$work/summary.json" >/dev/null
# The SLO report is populated and nonzero (every built-in class has an
# objective), and the jobs wait/run split came through /metrics.
jq -e '.slo.eligible == 60 and .slo.attained > 0' "$work/perf.json" >/dev/null
jq -e '.latency.p99_ms > 0 and .throughput_rps > 0' "$work/perf.json" >/dev/null
jq -e '.jobs.started > 0' "$work/perf.json" >/dev/null

# The Prometheus exposition the burst populated is scrape-valid
# (metricscheck also holds every histogram's buckets cumulative).
curl -fsS "http://$addr/metrics" > "$work/metrics.txt"
go run ./scripts/metricscheck \
  -require pslocal_requests_total,pslocal_request_duration_seconds,pslocal_jobs_submitted_total \
  < "$work/metrics.txt"
# The server-side latency histograms saw the traffic, split by cache
# disposition (the reused instances must have produced hits).
for track in reduce maxis jobs_submit cache_hit cache_miss; do
  if ! awk -v s="pslocal_request_duration_seconds_count{track=\"$track\"}" \
    '$1 == s && $2 > 0 { ok = 1 } END { exit !ok }' "$work/metrics.txt"; then
    echo "loadsmoke: latency track $track saw no samples" >&2
    exit 1
  fi
done

# Determinism: two replays of the recorded trace emit byte-identical
# summary JSON.
"$work/cfload" -addr "http://$addr" -replay "$work/burst.trace" -seed 1 > "$work/replay1.json"
"$work/cfload" -addr "http://$addr" -replay "$work/burst.trace" -seed 1 > "$work/replay2.json"
cmp "$work/replay1.json" "$work/replay2.json"
echo "load smoke passed"
