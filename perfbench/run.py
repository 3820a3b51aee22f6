#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload grid_full --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Builds the benchmark (the qwm libraries from ../src plus the driver in this
directory) under .bench_build/perfbench at the checkout root on first use,
then runs one workload. The last line of standard output is the JSON result
object; everything before it is the human-readable report. The exit status
is the driver's: 0 when every output check passed, nonzero otherwise.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = "4"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(deadline):
    """Configures once, then builds incrementally. Output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.time()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    start = time.time()
    if not build(start + BUILD_TIMEOUT_S):
        return 3
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.self_test:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "qwm_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", os.path.relpath(out_dir, ROOT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
