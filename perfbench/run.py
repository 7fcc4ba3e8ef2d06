#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench (and the homunculus
library it drives) from source with CMake into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set), runs one workload,
checks that its result line names exactly the metrics BENCHMARK.json
lists for the trace mode, and passes the program's output through. The
last line of standard output is the JSON result. Exits non-zero, without
a result line, when the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_flood", "routed_sharded", "lanes_paced", "compile_tc")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    compile_cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def git_sha():
    """The checkout's commit, when it is a git work tree (else unknown)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Why the result line breaks the contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})"
    for name, metric in got.items():
        if metric.get("unit") != want[name]:
            return f"{name} has unit {metric.get('unit')}, BENCHMARK.json says {want[name]}"
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        if lines[-1].startswith("{"):
            print(lines[-1], flush=True)  # the failed result, for the record
        log(f"{args.workload} exited {done.returncode}")
        return done.returncode
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        log(problem)
        return 4
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
