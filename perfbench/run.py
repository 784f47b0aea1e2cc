#!/usr/bin/env python3
"""The repo benchmark: build perfbench from source, run one workload, check
its result line.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds
perfbench/ (the scwc libraries, scwc_worker and the perfbench binary, Release) into
.bench_build/; later runs rebuild only what changed. Bundles, worker logs,
spans and per-run detail documents go to .bench_build/out/.

The last stdout line is the JSON result: correct, attempted, failed
and metrics. --workload all runs every workload in turn and prints a table
instead. Exit status is non-zero on a build failure, a crash, a verdict
that differs from the single-window reference, or a missing result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
SOURCE = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKER = os.path.join(BUILD, "scwc", "tools", "scwc_worker")
RUN_TIMEOUT_S = 170
# Compilers and the benchmark keep their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=ENV) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return False
    return True


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def parse_result(line):
    """The result object, or None when `line` is not a well-formed one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--worker", WORKER, "--out-dir", OUT, "--git-describe", git_describe()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=ENV,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the binary and its workers
        proc.communicate()
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    body = lines[:-1] if result is not None else lines
    sys.stdout.write("\n".join(body) + "\n")
    if result is None:
        sys.stderr.write("perfbench: %s printed no result line\n" % workload)
        return proc.returncode or 1, None
    return proc.returncode, result


def list_workloads():
    out = subprocess.run([BINARY, "--list", "1"], capture_output=True, text=True,
                         check=True, env=ENV)
    return out.stdout.split()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code if code != 0 else (0 if result["correct"] else 1)

    status = 0
    rows = []
    for workload in list_workloads():
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None or code != 0 or not result["correct"]:
            status = 1
        rows.append((workload, result))
    for workload, result in rows:
        print("== %s" % workload)
        if result is None:
            print("   (no result)")
            continue
        print("   correct %s, attempted %d, failed %d" %
              (result["correct"], result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("   %-42s %14.6g %s" % (name, metric["value"], metric["unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
