#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py [--seed N]

Runs a reduced version of every workload twice with the same seed and
asserts that

  * every output check passes (exit status 0, "correct": true,
    "failed": 0), including the pinned reference digests;
  * the exact, seed-determined counts repeat exactly: bugs_found,
    sim.decisions, detect.findings.*, trace counts and the digests of
    the result and findings documents;
  * an untraced run reports exactly the end_to_end metrics of
    BENCHMARK.json and a traced run exactly its per_layer metrics.

Exit status 0 when all of that holds.
"""

import argparse
import json
import os
import sys

import run

WORKLOADS = ["hunt", "scan", "serve"]


def exact_counts(stderr):
    for line in stderr.splitlines():
        if line.startswith("exact: "):
            return json.loads(line[len("exact: "):])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: sorted(m["name"] for m in bench["end_to_end"]),
             1: sorted(m["name"] for m in bench["per_layer"])}
    if not run.build():
        return 1

    problems = []
    for workload in WORKLOADS:
        seen = []
        for trace in (0, 1):
            status, lines, stderr = run.run(
                workload, args.seed, 2, trace, extra=["--reduced"],
                capture_stderr=True)
            tag = "%s trace=%d" % (workload, trace)
            if status != 0 or not lines:
                problems.append("%s: exit status %d\n%s" %
                                (tag, status, stderr or ""))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: checks failed\n%s" % (tag, stderr))
            if sorted(result["metrics"]) != names[trace]:
                problems.append("%s: metric names differ from "
                                "BENCHMARK.json: %s" %
                                (tag, sorted(set(result["metrics"]) ^
                                             set(names[trace]))))
            seen.append(exact_counts(stderr))
        if len(seen) == 2:
            if not seen[0]:
                problems.append("%s: no exact counts reported" % workload)
            elif seen[0] != seen[1]:
                diff = {k: (seen[0].get(k), seen[1].get(k))
                        for k in set(seen[0]) | set(seen[1])
                        if seen[0].get(k) != seen[1].get(k)}
                problems.append("%s: exact counts differ between two "
                                "runs of seed %d: %s" %
                                (workload, args.seed, diff))
        print("%s: %s" % (workload, "ok" if not any(
            p.startswith(workload) for p in problems) else "FAILED"))
    for p in problems:
        sys.stderr.write("FAILED: %s\n" % p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
