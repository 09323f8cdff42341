#!/usr/bin/env python3
"""End-to-end benchmark of the lfm libraries.

    python3 perfbench/run.py --workload hunt|scan|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
lfm libraries from ../src) into .bench_build/perfbench, runs one
workload, and relays its output. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
(--trace 0) report the end-to-end metrics of BENCHMARK.json, traced
runs (--trace 1) its per-layer metrics. The exit status is 0 only
when the build succeeded and every output check passed.

Run from the root of a checkout; everything is built and written
inside it.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lfm_perfbench")
# A run measures for --seconds plus set-up and checks; anything near
# this is hung.
RUN_TIMEOUT_S = 170


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then bring the binary up to date. Returns
    False (after printing why) when the build fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "lfm_perfbench", "-j", str(build_jobs())])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.stderr.write("perfbench: build step failed: %s\n" %
                                 " ".join(step))
                return False
    return True


def run(workload, seed, seconds, trace, extra=(), capture_stderr=False):
    """Run one workload; returns (exit status, stdout lines, stderr
    text or None when it went to our stderr)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if capture_stderr else None,
            text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s run timed out\n" % workload)
        return 1, [], None
    return done.returncode, done.stdout.splitlines(), done.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["hunt", "scan", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int,
                        choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    status, lines, _ = run(args.workload, args.seed, args.seconds,
                           args.trace)
    if not lines:
        return status or 1
    for line in lines:
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
