#!/usr/bin/env sh
# cluster-telemetry-smoke — proves the cluster observability pipeline end
# to end, cheaply: a tiny fully-sampled 2-worker fleet must leave
#
#   * one merged chrome trace where EVERY accepted router-side request has
#     worker-side transform/predict slices under the same trace id
#     (scwc_tracemerge --require-joined), structurally valid for
#     chrome://tracing,
#   * an aggregated fleet metrics exposition carrying per-shard-labeled
#     worker series next to the router's own aggregates, as fresh as the
#     router's own summary line (same per-shard request count), and
#   * a cluster audit log whose records carry shard_id + the propagated
#     trace id, cross-checked against the merged trace
#     (audit_validate --cluster --chrome-trace).
#
# Usage: cluster_telemetry_smoke.sh SERVE_BIN WORKER_BIN ROUTER_BIN \
#                                   TRACEMERGE_BIN VALIDATOR_BIN SCRATCH_DIR
set -eu

serve_bin=$1
worker_bin=$2
router_bin=$3
tracemerge=$4
validator=$5
out_dir=$6

rm -rf "$out_dir"
mkdir -p "$out_dir"

fail() {
  echo "cluster_telemetry_smoke: $1" >&2
  for f in "$out_dir"/*.log; do
    [ -f "$f" ] && { echo "---- $f"; cat "$f"; }
  done
  exit 1
}

# 1) Train the serving bundle once (the serve tool's --bundle-cache path).
bundle="$out_dir/bundle.scwcbndl"
"$serve_bin" --scale tiny --jobs 2 --duration-s 120 \
  --bundle-cache "$bundle" > "$out_dir/train.log" 2>&1 \
  || fail "bundle training run failed"
[ -f "$bundle" ] || fail "no bundle written to $bundle"

# 2) Two workers, full tracing, shard 0 also serving a scrape endpoint.
SCWC_OBS=on "$worker_bin" --shard-id 0 --bundle "$bundle" --port 0 \
  --port-file "$out_dir/shard0.port" \
  --trace-out "$out_dir/shard0_trace.json" \
  --listen 0 --listen-port-file "$out_dir/shard0.http" \
  > "$out_dir/worker0.log" 2>&1 &
w0=$!
SCWC_OBS=on "$worker_bin" --shard-id 1 --bundle "$bundle" --port 0 \
  --port-file "$out_dir/shard1.port" \
  --trace-out "$out_dir/shard1_trace.json" \
  > "$out_dir/worker1.log" 2>&1 &
w1=$!

# Write-then-rename rendezvous: poll until both ports are published.
tries=0
while [ ! -f "$out_dir/shard0.port" ] || [ ! -f "$out_dir/shard1.port" ]; do
  tries=$((tries + 1))
  [ "$tries" -gt 300 ] && fail "workers never published their ports"
  sleep 0.05
done
p0=$(cat "$out_dir/shard0.port")
p1=$(cat "$out_dir/shard1.port")

# 3) Fully-sampled routed load + fleet aggregation + halt.
log="$out_dir/router.log"
SCWC_OBS=on "$router_bin" --ports "$p0,$p1" --windows 64 --jobs 8 \
  --trace-out "$out_dir/router_trace.json" --trace-sample 1.0 \
  --audit-out "$out_dir/audit.jsonl" \
  --metrics-out "$out_dir/metrics.txt" --listen 0 \
  --halt > "$log" 2>&1 || fail "router run failed"
wait "$w0" || fail "worker 0 exited non-zero"
wait "$w1" || fail "worker 1 exited non-zero"

grep -q "fleet endpoint: http://127.0.0.1:" "$log" \
  || fail "router never served the fleet endpoint"
grep -q '^shard [01]: requests [1-9]' "$log" \
  || fail "no per-shard serving counters from the metrics pull"

# 4) Merge the three traces; every accepted request must join.
merged="$out_dir/merged_trace.json"
"$tracemerge" --router "$out_dir/router_trace.json" \
  --workers "$out_dir/shard0_trace.json,$out_dir/shard1_trace.json" \
  --out "$merged" --require-joined true \
  || fail "trace merge failed (or an accepted request did not join)"
"$validator" --chrome-trace "$merged" || fail "merged trace invalid"

# 5) Cluster audit log: shard_id + trace ids joined against the merge,
# held to the exact record count the router reported writing.
records=$(sed -n 's/^audit log: .* (\([0-9][0-9]*\) records.*/\1/p' "$log")
if [ -z "$records" ] || [ "$records" -eq 0 ]; then
  fail "no audit records reported"
fi
"$validator" --cluster "$out_dir/audit.jsonl" --chrome-trace "$merged" \
  --expect-records "$records" || fail "cluster audit validation failed"

# 6) Aggregated fleet metrics: per-shard-labeled worker series next to the
# router's own aggregates, in one exposition.
metrics="$out_dir/metrics.txt"
[ -s "$metrics" ] || fail "no fleet metrics written"
grep -q '{shard="0"}' "$metrics" || fail "no shard=0 labeled series"
grep -q '{shard="1"}' "$metrics" || fail "no shard=1 labeled series"
grep -q '^scwc_cluster_submitted_total ' "$metrics" \
  || fail "router aggregate counters missing"
grep -q '^scwc_cluster_ring_size ' "$metrics" \
  || fail "router ring gauge missing"
# Freshness: the file is rendered after the load, so each shard's request
# count must equal the one its summary line read from the same workers.
for k in 0 1; do
  summary=$(sed -n "s/^shard $k: requests \([0-9][0-9]*\),.*/\1/p" "$log")
  exported=$(sed -n "s/^scwc_serve_requests_total{shard=\"$k\"} \([0-9][0-9]*\)\$/\1/p" \
    "$metrics")
  [ -n "$summary" ] && [ "$summary" = "$exported" ] \
    || fail "shard $k: metrics.txt has requests '$exported', summary '$summary'"
done

echo "cluster_telemetry_smoke: OK ($records records, traces joined)"
