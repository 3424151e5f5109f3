#!/bin/sh
# End-to-end cluster smoke: three cfserve nodes sharing one job store
# behind a cfgate gateway. Three phases:
#
#   1. Control: record a cfload burst through a round-robin gateway on a
#      fresh fleet and capture its cache-hit ratio.
#   2. Affinity: restart the fleet with cold caches, replay the identical
#      trace through an affinity gateway, and require a strictly higher
#      cache-hit ratio (the point of content-hash routing). The shared
#      store carries phase-1 jobs over: the fresh fleet adopts them and
#      serves them by id through the gateway.
#   3. Drain: fire a paced burst at the affinity gateway and SIGTERM one
#      backend mid-burst. The gateway must reroute (cfgate_rerouted_total
#      > 0 on its /metrics), the killed node must drain and exit 0, and
#      the client must see zero failed requests.
#
# Pass/fail only; it writes no benchmark numbers (perfbench is the
# serving benchmark). Usage: scripts/clustersmoke.sh
set -eu
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=""
cleanup() {
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/cfserve" ./cmd/cfserve
go build -o "$work/cfgate" ./cmd/cfgate
go build -o "$work/cfload" ./cmd/cfload

gate=127.0.0.1:8370
b1=127.0.0.1:8371
b2=127.0.0.1:8372
b3=127.0.0.1:8373
backends="http://$b1,http://$b2,http://$b3"
store="$work/jobs"

wait_ready() {
  for i in $(seq 1 50); do
    curl -fsS "http://$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "clustersmoke: $1 never became ready" >&2
  return 1
}

start_fleet() {
  "$work/cfserve" -addr "$b1" -jobs-dir "$store" & pid1=$!
  "$work/cfserve" -addr "$b2" -jobs-dir "$store" & pid2=$!
  "$work/cfserve" -addr "$b3" -jobs-dir "$store" & pid3=$!
  pids="$pids $pid1 $pid2 $pid3"
  wait_ready "$b1"; wait_ready "$b2"; wait_ready "$b3"
}

start_gate() { # $1 = policy
  "$work/cfgate" -addr "$gate" -backends "$backends" -policy "$1" \
    -probe-interval 200ms -fail-after 2 & gate_pid=$!
  pids="$pids $gate_pid"
  wait_ready "$gate"
}

# --- Phase 1: round-robin control on a cold fleet ---------------------
start_fleet
start_gate round-robin
"$work/cfload" -addr "http://$gate" -requests 120 -rate 500 -seed 11 \
  -hit-ratio 0.6 -record "$work/burst.trace" -perf-out "$work/perf_rr.json" \
  > "$work/summary_rr.json"
jq -e '.failed == 0' "$work/summary_rr.json" >/dev/null
# Round-robin spreads responses across the fleet...
jq -e '.backends | length == 3' "$work/perf_rr.json" >/dev/null
rr_ratio=$(jq .cache_hit_ratio "$work/perf_rr.json")

# --- Phase 2: affinity on an equally cold fleet, same trace -----------
kill $pids 2>/dev/null || true
for p in $pids; do wait "$p" 2>/dev/null || true; done
pids=""
start_fleet
start_gate affinity
"$work/cfload" -addr "http://$gate" -replay "$work/burst.trace" \
  -perf-out "$work/perf_aff.json" > "$work/summary_aff.json"
jq -e '.failed == 0' "$work/summary_aff.json" >/dev/null
aff_ratio=$(jq .cache_hit_ratio "$work/perf_aff.json")
echo "clustersmoke: cache-hit ratio round-robin=$rr_ratio affinity=$aff_ratio"
# The acceptance criterion: affinity strictly beats the control.
awk "BEGIN { exit !($aff_ratio > $rr_ratio) }"

# Shared-store adoption: the cold fleet adopted phase-1 jobs, so the
# gateway's merged list sees them and any node answers a job id.
curl -fsS "http://$gate/v1/jobs" > "$work/jobs.json"
jq -e '.count > 0' "$work/jobs.json" >/dev/null
id=$(jq -r '.jobs[0].job.id' "$work/jobs.json")
curl -fsS "http://$gate/v1/jobs/$id" | jq -e '.job.state == "done"' >/dev/null

# Observability: a caller-supplied request id survives the whole path —
# echoed by the gateway, forwarded to the backend, stamped on the job's
# metadata — and both tiers serve scrape-valid Prometheus expositions.
rid="smoke-rid-$$"
curl -fsS -D "$work/submit.hdr" -X POST -H "X-Pslocal-Request-Id: $rid" \
  --data-binary @cmd/cfserve/testdata/quickstart.json \
  "http://$gate/v1/jobs?k=3&oracle=greedy-mindeg" > "$work/submit.json"
grep -qi "^X-Pslocal-Request-Id: $rid" "$work/submit.hdr"
jid=$(jq -r .job.id "$work/submit.json")
for i in $(seq 1 100); do
  state=$(curl -fsS "http://$gate/v1/jobs/$jid" | jq -r .job.state)
  [ "$state" = done ] && break
  sleep 0.1
done
curl -fsS "http://$gate/v1/jobs/$jid" \
  | jq -e --arg rid "$rid" '.job.request_id == $rid' >/dev/null
curl -fsS "http://$gate/metrics" | go run ./scripts/metricscheck \
  -require cfgate_requests_total,cfgate_proxy_duration_seconds,cfgate_backend_healthy,cfgate_healthy_backends
curl -fsS "http://$b1/metrics" | go run ./scripts/metricscheck \
  -require pslocal_requests_total,pslocal_request_duration_seconds

# --- Phase 3: SIGTERM one node mid-burst, zero failed requests --------
"$work/cfload" -addr "http://$gate" -requests 200 -rate 100 -seed 23 \
  -hit-ratio 0.6 -speed 1 > "$work/summary_drain.json" & load_pid=$!
sleep 0.7
kill -TERM "$pid3"
if ! wait "$load_pid"; then
  echo "clustersmoke: drain burst failed" >&2
  cat "$work/summary_drain.json" >&2
  exit 1
fi
# The drained node exits cleanly (running jobs finished, listener done).
if ! wait "$pid3"; then
  echo "clustersmoke: SIGTERMed backend exited non-zero" >&2
  exit 1
fi
jq -e '.failed == 0' "$work/summary_drain.json" >/dev/null
curl -fsS "http://$gate/metrics" > "$work/gatemetrics.txt"
awk '$1 == "cfgate_rerouted_total" && $2 > 0 { ok = 1 } END { exit !ok }' "$work/gatemetrics.txt"
awk '$1 == "cfgate_policy_info{policy=\"affinity\"}" && $2 == 1 { ok = 1 } END { exit !ok }' \
  "$work/gatemetrics.txt"
# The gateway is still ready on the surviving nodes.
curl -fsS "http://$gate/readyz" >/dev/null
echo "cluster smoke passed"
