#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload reconfig --seed 1 --seconds 10 --trace 0

The harness (perfbench/perfbench.cpp, a CMake project of its own that
compiles ../src) is configured and built in Release into
.bench_build/perfbench; build output goes to stderr. The harness's result
line is checked for its shape and printed as the last line of stdout. Exits
non-zero without printing a result when the build, the run or the result
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
WORKLOADS = ("reconfig", "fleet", "fleet_par")
# Headroom under the 180 s one run may take once the harness is built.
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds (a no-op when nothing changed)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("harness printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric %s is malformed" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: harness exited %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = parse_result(proc.stdout)
    except ValueError as err:
        print("perfbench: bad result: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
