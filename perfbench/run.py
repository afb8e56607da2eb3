#!/usr/bin/env python3
"""Builds the PTRider benchmark from source, then runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <rush_pool|metro_cruise|service_steady>
      --seed <n> --seconds <s> --trace <0|1> [--quick]

The library under src/ and the benchmark program under perfbench/src/
are built with CMake (Release) into .bench_build/perfbench/ below the
repository root; build output goes to stderr. The benchmark's own stdout is passed
through unchanged: its last line is the JSON result. Traced runs write
their Chrome trace-event JSON to .bench_build/perfbench/traces/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "ptrider.h")):
        sys.exit("perfbench: no PTRider sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rush_pool", "metro_cruise", "service_steady"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, every check on, a few seconds")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.quick:
        cmd.append("--quick")
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
