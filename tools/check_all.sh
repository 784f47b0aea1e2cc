#!/usr/bin/env sh
# The one-command correctness meta-gate — what a CI job calls.
#
# Runs, in order:
#   release      configure + build + ctest for the release preset
#   serve-smoke  self-checking serving load test  (SCWC_SMOKE=1 bench)
#   chaos-smoke  fault-injection sweep of the self-healing serve stack
#   cluster-smoke sharded-serving bench: real worker fleet over loopback
#                TCP, shard-kill availability + fleet-wide hot-swap gates
#   cluster-telemetry-smoke
#                fully-sampled 2-worker fleet: merged cross-process chrome
#                trace, aggregated per-shard /metrics, cluster audit log
#   obs-overhead instrumentation cost bounds      (micro_kernels obs benches)
#   asan         full suite under ASan+UBSan      (tests/run_sanitized.sh)
#   tsan         full suite under ThreadSanitizer (tests/run_tsan.sh)
#   tsa          Clang thread-safety analysis     (cmake --preset tsa)
#   tidy         curated clang-tidy set           (tools/run_clang_tidy.sh)
#   lint         scwc_lint project invariants     (tools/scwc_lint)
#
# and prints one PASS/FAIL/SKIP line per gate plus a final verdict. A gate
# failure does not stop later gates — CI wants the full picture in one run.
# Exit status: 0 when no gate FAILed (SKIPs allowed), 1 otherwise.
#
# Artifacts: the lint gate also writes build/scwc_lint.json (scwc.lint/v1)
# so CI can archive machine-readable findings next to the bench JSON.
#
# Environment: SCWC_CHECK_JOBS caps build/test parallelism (default nproc).
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

jobs=${SCWC_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}
summary=""
overall=0

record() {
  # record <gate> <status 0|1|2>  — 2 means SKIP
  case "$2" in
    0) summary="$summary
PASS  $1" ;;
    2) summary="$summary
SKIP  $1" ;;
    *) summary="$summary
FAIL  $1"; overall=1 ;;
  esac
}

run_gate() {
  # run_gate <name> <cmd...>
  name=$1; shift
  echo "==> gate: $name"
  if "$@"; then
    record "$name" 0
  else
    record "$name" 1
  fi
}

# -- release ---------------------------------------------------------------
release_gate() {
  cmake --preset release &&
    cmake --build --preset release -j "$jobs" &&
    ctest --test-dir build --output-on-failure -j "$jobs"
}
run_gate release release_gate

# -- serve-smoke -----------------------------------------------------------
# Shortened run of the serving load test (capacity, then 0.2 s open-loop
# phases); the bench fails its own exit code when batched labels diverge
# from single-request labels or a future hangs. The throughput gate (p99 ≤
# deadline and shed ≤ 1% at 0.5× capacity) is timing-based and enforced
# only by the full run.
echo "==> gate: serve-smoke"
if [ -x build/bench/serve_throughput ]; then
  if env SCWC_SMOKE=1 SCWC_SCALE=tiny build/bench/serve_throughput \
       --out build/bench/BENCH_serve_smoke.json; then
    record serve-smoke 0
  else
    record serve-smoke 1
  fi
else
  echo "check_all.sh: build/bench/serve_throughput missing (release gate failed?)" >&2
  record serve-smoke 1
fi

# -- chaos-smoke -----------------------------------------------------------
# Shortened chaos sweep: every ChaosInjector fault family once against a
# health-enabled service; the bench exit code reflects crashes/hangs, and
# the full (non-smoke) run additionally gates on availability + recovery.
echo "==> gate: chaos-smoke"
if [ -x build/bench/serve_chaos ]; then
  if env SCWC_SMOKE=1 SCWC_SCALE=tiny build/bench/serve_chaos \
       --out build/bench/BENCH_chaos_smoke.json; then
    record chaos-smoke 0
  else
    record chaos-smoke 1
  fi
else
  echo "check_all.sh: build/bench/serve_chaos missing (release gate failed?)" >&2
  record chaos-smoke 1
fi

# -- cluster-smoke ---------------------------------------------------------
# Shortened run of the sharded-serving bench: forks a real 2-worker fleet,
# drives it over loopback TCP, SIGKILLs one shard mid-load and pushes a
# good + a corrupt bundle fleet-wide. Enforced here: the dead shard leaves
# the ring, v2 commits on every live shard, the corrupt push rolls back
# everywhere, zero downtime during the swaps. Reported only (enforced by
# the full run, which writes the tracked BENCH_cluster.json): the
# throughput gate at 0.5× fleet capacity and availability ≥ 0.95 across
# the shard kill.
echo "==> gate: cluster-smoke"
if [ -x build/bench/cluster_throughput ] && [ -x build/tools/scwc_worker ]; then
  if env SCWC_SMOKE=1 SCWC_SCALE=tiny build/bench/cluster_throughput \
       --worker build/tools/scwc_worker \
       --tmp-dir build/bench \
       --out build/bench/BENCH_cluster_smoke.json; then
    record cluster-smoke 0
  else
    record cluster-smoke 1
  fi
else
  echo "check_all.sh: build/bench/cluster_throughput or build/tools/scwc_worker missing (release gate failed?)" >&2
  record cluster-smoke 1
fi

# -- cluster-telemetry-smoke -----------------------------------------------
# The cluster observability pipeline end to end: 2-worker fleet with full
# request sampling; the merged chrome trace must join every accepted
# request to its worker-side slices, the fleet metrics must carry
# per-shard labels, and the cluster audit log must cross-check against
# the merged trace. Same script as the ctest of the same name.
echo "==> gate: cluster-telemetry-smoke"
if [ -x build/tools/scwc_router ] && [ -x build/tools/scwc_tracemerge ]; then
  if env SCWC_SMOKE=1 SCWC_SCALE=tiny tests/cluster_telemetry_smoke.sh \
       build/tools/scwc_serve build/tools/scwc_worker \
       build/tools/scwc_router build/tools/scwc_tracemerge \
       build/tools/audit_validate build/cluster_telemetry_smoke_out; then
    record cluster-telemetry-smoke 0
  else
    record cluster-telemetry-smoke 1
  fi
else
  echo "check_all.sh: build/tools/scwc_router or scwc_tracemerge missing (release gate failed?)" >&2
  record cluster-telemetry-smoke 1
fi

# -- obs-overhead ----------------------------------------------------------
# Holds the serve-hot-path instrumentation to documented per-call bounds
# (release build; generous ~20x headroom over measured so only a real
# regression — a lock added to the fast path, an accidental allocation —
# trips it, not scheduler noise):
#   BM_ObsCounterInc          ≤   200 ns   (per answered request, several)
#   BM_ObsRollingObserve      ≤  2000 ns   (per answered request)
#   BM_ObsTracerBeginSampled  ≤   500 ns   (per submitted request)
#   BM_ObsRollingSnapshot     ≤ 50000 ns   (per scrape, ~1 Hz)
echo "==> gate: obs-overhead"
if [ -x build/bench/micro_kernels ]; then
  obs_csv=build/bench/obs_overhead.csv
  if build/bench/micro_kernels \
       --benchmark_filter='BM_ObsCounterInc$|BM_ObsRollingObserve|BM_ObsTracerBeginSampled|BM_ObsRollingSnapshot' \
       --benchmark_format=csv >"$obs_csv" 2>/dev/null &&
     awk -F, '
       /^"?BM_/ {
         gsub(/"/, "", $1); ns = $3 + 0
         bound = 0
         if ($1 == "BM_ObsCounterInc")         bound = 200
         if ($1 == "BM_ObsRollingObserve")     bound = 2000
         if ($1 == "BM_ObsTracerBeginSampled") bound = 500
         if ($1 == "BM_ObsRollingSnapshot")    bound = 50000
         if (bound > 0) {
           seen++
           status = (ns <= bound) ? "ok" : "OVER"
           printf "  %-26s %10.1f ns  (bound %d ns) %s\n", $1, ns, bound, status
           if (ns > bound) bad++
         }
       }
       END { if (seen < 4) { print "  expected 4 obs benches, saw " seen+0; exit 1 }
             exit (bad > 0) ? 1 : 0 }
     ' "$obs_csv"; then
    record obs-overhead 0
  else
    record obs-overhead 1
  fi
else
  echo "check_all.sh: build/bench/micro_kernels missing (release gate failed?)" >&2
  record obs-overhead 1
fi

# -- asan ------------------------------------------------------------------
run_gate asan tests/run_sanitized.sh

# -- tsan ------------------------------------------------------------------
run_gate tsan tests/run_tsan.sh

# -- thread-safety analysis ------------------------------------------------
# Compiles the whole tree with Clang's -Wthread-safety (as
# -Werror=thread-safety, so only TSA findings can fail the gate) against
# the SCWC_GUARDED_BY/SCWC_REQUIRES annotations. GCC compiles the
# annotation macros to nothing, so this gate is the only place they are
# actually checked — SKIP loudly when clang++ is unavailable.
echo "==> gate: tsa"
if ! command -v clang++ >/dev/null 2>&1; then
  echo "check_all.sh: SKIP tsa — clang++ not found; the thread-safety" >&2
  echo "annotations (src/common/thread_annotations.hpp) compile as no-ops" >&2
  echo "under GCC and were NOT verified. Install clang to close this gap." >&2
  record tsa 2
elif cmake --preset tsa && cmake --build --preset tsa -j "$jobs"; then
  record tsa 0
else
  record tsa 1
fi

# -- clang-tidy ------------------------------------------------------------
echo "==> gate: tidy"
if ! command -v clang-tidy >/dev/null 2>&1; then
  tools/run_clang_tidy.sh  # prints the SKIP explanation
  record tidy 2
elif tools/run_clang_tidy.sh; then
  record tidy 0
else
  record tidy 1
fi

# -- scwc_lint -------------------------------------------------------------
echo "==> gate: lint"
if [ -x build/tools/scwc_lint ]; then
  # Human-readable findings gate the run; the JSON artifact is written
  # either way so CI archives the machine-readable record (same exit
  # status contract, so the artifact never masks a failure).
  build/tools/scwc_lint --format=json "$repo_root" \
    >build/scwc_lint.json 2>/dev/null
  echo "check_all.sh: lint artifact written to build/scwc_lint.json"
  if build/tools/scwc_lint "$repo_root"; then record lint 0; else record lint 1; fi
else
  echo "check_all.sh: build/tools/scwc_lint missing (release gate failed?)" >&2
  record lint 1
fi

echo
echo "==================== check_all summary ===================="
echo "$summary" | sed '/^$/d'
echo "==========================================================="
exit "$overall"
