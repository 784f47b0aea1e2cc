#!/usr/bin/env sh
# Configure, build and run the test suite under ThreadSanitizer.
#
# The concurrency-heavy layers — ThreadPool submit/stop, the relaxed-atomic
# MetricsRegistry fast path, the TraceSpan tree, parallel RF/GBT/NN
# training — are exercised hardest by tests/test_concurrency_stress.cpp,
# but the whole suite runs so any test that schedules work on the pool is
# also checked, as is the scrape server's accept thread
# (tests/test_net_scrape.cpp, `tests/run_tsan.sh Scrape`). The pool's LIFO
# idle stack has two races of its own there:
# ConcurrencyStressTest.StopRacesParkingAndJustWokenWorkers and
# ConcurrencyStressTest.WokenWorkerFindsQueueTakenByFinishingWorker
# (`tests/run_tsan.sh 'ThreadPool|Concurrency|Serve|Cluster'`). The
# router's per-shard control round trip has three:
# Cluster.ConcurrentMetricsPullsOfOneShardAllAnswer,
# Cluster.FleetMetricsKeepADeadShardsLastPull and
# Cluster.FleetMetricsDoNotWaitBehindAStuckShard
# (`tests/run_tsan.sh 'Cluster|Concurrency'`). The router's bounded send
# races a stuck submit, the sends queued behind it, a fleet scrape and the
# reader's own shutdown in Cluster.SendsToAShardThatStopsReadingAreBounded;
# the worker's swap-loader thread acks a commit while its reader takes
# submits in Cluster.SlowBundleLoadUnderSaturatingSubmitsKeepsTheShard.
# Worker verdicts are framed and written by the pool threads that resolve
# their batches: Cluster.AConnectionThatStopsReadingDoesNotStallTheWorker
# races those writes, and the pool task that waits on a slow peer,
# against a connection whose peer stopped reading and against stop();
# Cluster.AStuckConnectionsExpiringRequestsDoNotDelayAnotherConnection
# does the same from the flusher's expired-request sheds;
# Cluster.VerdictsAreMatchedByRequestIdNotByOrder and
# Cluster.RequestedShutdownIsNotAShardDeath race the router's reader
# against out-of-order verdicts and a requested worker exit, and
# LockOrder.ClusterStressWritesVerdictsOutsideServeLocks checks that no
# serve lock is held around a verdict write (`tests/run_tsan.sh
# 'Cluster|LockOrder'`). The local socket's cross-thread cases are
# LocalSocket.ShutdownUnblocksAReaderWaitingForData and
# LocalSocket.ReaderIsNotWokenByItsOwnSidesSends
# (`tests/run_tsan.sh 'Cluster|LocalSocket|FrameReader'`). The worker's
# reader sleeps through a light batch on the condition stop() signals,
# while the flusher records each cut that MicroBatcher::light_cut_at reads:
# MicroBatcher.LightCutAtFollowsTheLastCut,
# Cluster.LightTrafficIsReadOncePerBatch,
# Cluster.BurstAfterLightTrafficIsNotHeldBack, Cluster.StopEndsAQuietWait
# and Cluster.DeadlineDuringAQuietWaitResolvesOnceAsExceeded
# (`tests/run_tsan.sh 'MicroBatcher|Cluster'`). The scrape thread polls
# its listener and every open connection at once:
# ScrapeServerTest.SilentConnectionDoesNotDelayAGoodScrape. Usage:
#
#   tests/run_tsan.sh                 # full suite
#   tests/run_tsan.sh -R Concurrency  # forward any ctest args, e.g. a regex
#   tests/run_tsan.sh Concurrency     # bare first arg is shorthand for -R
#   tests/run_tsan.sh --fresh [...]   # wipe the cached configure first
#
# Uses the "tsan" preset from CMakePresets.json (build dir: build-tsan).
# The preset also sets SCWC_LOCK_ORDER=ON, so the lock-hierarchy tracker
# (common/lock_order.hpp) is live for every test here. Benches and
# examples are disabled in the preset: TSan's 5-15x slowdown makes them
# pointless, and the gate is the tests.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

# `--fresh` reconfigures from scratch (cmake wipes build-tsan's cache) —
# the escape hatch for a stale cache left by an older checkout: a changed
# compiler or deleted toolchain makes configure fail, or quietly keeps
# options the presets no longer set.
fresh=""
if [ "${1:-}" = "--fresh" ]; then
  fresh="--fresh"
  shift
fi

# Fail fast with a real diagnostic instead of ctest's opaque "no test
# configuration" error when configuration never happened or went wrong.
if ! cmake --preset tsan $fresh; then
  echo "run_tsan.sh: 'cmake --preset tsan' failed — the tsan preset could" >&2
  echo "not be configured (see CMakePresets.json). If build-tsan/ holds a" >&2
  echo "stale cache, rerun as: tests/run_tsan.sh --fresh" >&2
  exit 1
fi
if [ ! -f build-tsan/CMakeCache.txt ]; then
  echo "run_tsan.sh: build-tsan/CMakeCache.txt missing after configure —" >&2
  echo "refusing to run ctest against a non-existent tree." >&2
  exit 1
fi
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)"

# halt_on_error keeps a race from scrolling past; second_deadlock_stack
# makes lock-inversion reports actionable.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

if [ "$#" -gt 0 ]; then
  case "$1" in
    -*) ;;                                  # ctest flags — forward as-is
    *) regex=$1; shift; set -- -R "$regex" "$@" ;;  # bare regex → -R regex
  esac
  ctest --test-dir build-tsan --output-on-failure "$@"
else
  ctest --test-dir build-tsan --output-on-failure -j 2
fi
