#!/usr/bin/env sh
# determinism-smoke — determinism is a repo invariant; this makes it a test.
#
# Runs a bench twice in the current directory and fails on any difference
# in its stdout apart from the lines that are timing or paths by design
# ("total wall time: ..." and "run report: ..."). Registered in
# bench/CMakeLists.txt at SCWC_SCALE=tiny with robustness_curves, which
# drives GuardedClassifier::classify over FaultInjector-damaged windows,
# and with xgboost_random1 and ablation_cpu_fusion, which featurise their
# splits through FeaturePipeline.
#
# Usage: determinism_smoke.sh BENCH_BINARY
set -eu

bench_bin=$1
name=$(basename "$bench_bin")

for run in a b; do
  "$bench_bin" > "determinism_${name}_${run}.raw"
  grep -v -e '^total wall time' -e '^run report' \
    "determinism_${name}_${run}.raw" > "determinism_${name}_${run}.txt"
done

if ! diff "determinism_${name}_a.txt" "determinism_${name}_b.txt"; then
  echo "determinism-smoke: two runs of $name differ (diff above)" >&2
  exit 1
fi
echo "determinism-smoke: two runs of $name are identical" \
  "($(wc -l < "determinism_${name}_a.txt") lines compared)"
