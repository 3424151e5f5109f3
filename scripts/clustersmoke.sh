#!/bin/sh
# End-to-end cluster smoke: three cfserve nodes sharing one job store
# behind a cfgate gateway. A shared -jobs-dir is supported: every file
# lands by atomic rename, and a node adopts the terminal jobs other nodes
# wrote; when two nodes run the same job id, the last metadata write
# wins. Three phases:
#
#   1. Control: record a cfload burst through a round-robin gateway on a
#      fresh fleet and capture its cache-hit ratio.
#   2. Affinity: restart the fleet with cold caches, replay the identical
#      trace through an affinity gateway, and require a strictly higher
#      cache-hit ratio (the point of content-hash routing). The shared
#      store carries phase-1 jobs over: the fresh fleet adopts them and
#      serves them by id through the gateway, and a node that did not
#      run a job streams its events and accepts its DELETE. A malformed
#      list query answers the backends' 400 through the gateway.
#   3. Drain: fire a paced burst at the affinity gateway and SIGTERM one
#      backend mid-burst. The gateway must reroute (cfgate_rerouted_total
#      > 0 on its /metrics), the killed node must drain and exit 0, the
#      client must see zero failed requests, and afterwards every
#      cfgate_backend_inflight series must read 0.
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
# A list query every node rejects is the client's error: the gateway
# relays the backends' 400, not a 502.
code=$(curl -sS -o "$work/badlimit.json" -w '%{http_code}' "http://$gate/v1/jobs?limit=abc")
if [ "$code" != 400 ]; then
  echo "clustersmoke: GET /v1/jobs?limit=abc through the gateway answered $code, want 400" >&2
  exit 1
fi
jq -e '.error | length > 0' "$work/badlimit.json" >/dev/null

# Every id lookup reads the shared store, not only GET: once a fresh
# job's runner (named by X-Pslocal-Backend) has finished it, each other
# node must stream its done event and accept its DELETE. They are asked
# before any GET reaches them, which would adopt the job first, and in
# opposite orders, so each method adopts on one node.
curl -fsS -D "$work/fresh.hdr" -X POST \
  --data-binary @cmd/cfserve/testdata/quickstart.json \
  "http://$gate/v1/jobs?k=3&oracle=greedy-mindeg&seed=29" > "$work/fresh.json"
fid=$(jq -r .job.id "$work/fresh.json")
runner=$(awk 'tolower($1) == "x-pslocal-backend:" { sub(/\r$/, "", $2); print $2 }' "$work/fresh.hdr")
state=""
for i in $(seq 1 100); do
  state=$(curl -fsS "$runner/v1/jobs/$fid" | jq -r .job.state)
  [ "$state" = done ] && break
  sleep 0.1
done
[ "$state" = done ]
peer_events() { curl -fsS --max-time 10 "$1/v1/jobs/$fid/events" | grep -q '^event: done'; }
peer_cancel() { curl -fsS -X DELETE "$1/v1/jobs/$fid" | jq -e '.job.state == "done"' >/dev/null; }
order="events cancel"
for b in "http://$b1" "http://$b2" "http://$b3"; do
  [ "$b" = "$runner" ] && continue
  for op in $order; do
    "peer_$op" "$b" || {
      echo "clustersmoke: $b failed $op of job $fid, which $runner ran" >&2
      exit 1
    }
  done
  order="cancel events"
done

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
# Every request has answered, so no backend has one in flight.
if ! awk '$1 ~ /^cfgate_backend_inflight\{/ { n++; if ($2 != 0) bad = 1 } END { exit !(n == 3 && !bad) }' \
  "$work/gatemetrics.txt"; then
  echo "clustersmoke: cfgate_backend_inflight is not 0 on every backend after the burst" >&2
  grep '^cfgate_backend_inflight' "$work/gatemetrics.txt" >&2
  exit 1
fi
# The gateway is still ready on the surviving nodes.
curl -fsS "http://$gate/readyz" >/dev/null
echo "cluster smoke passed"
