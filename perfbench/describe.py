#!/usr/bin/env python3
"""Record the benchmark's input properties and the machine.

    python3 perfbench/describe.py [--seed N]

Runs every workload once (untraced, BENCHMARK.json's run_seconds) and
writes perfbench/inputs.json: per workload its seed, why it exists,
and the input properties the run reports ("input.*" notes: trace
counts and event-size distributions, corpus size against the L2 and
L3 caches, repeat, race-free and raw-log shares, manifest ratio),
plus the machine (nproc, CPU governor, compiler, build type).
"""

import argparse
import json
import os
import re
import sys

import run

OUT = os.path.join(run.HERE, "inputs.json")


def machine():
    governor = "unreadable"
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/"
                  "scaling_governor") as f:
            governor = f.read().strip() or governor
    except OSError:
        pass
    cache = {}
    with open(os.path.join(run.BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)",
                         line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = os.popen("'%s' --version" % compiler).readline().strip()
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": model,
            "governor": governor,
            "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not run.build():
        return 1
    doc = {"machine": machine(), "workloads": {}}
    for w in bench["workloads"]:
        status, lines, stderr = run.run(w["name"], args.seed,
                                        bench["run_seconds"], 0,
                                        capture_stderr=True)
        if status != 0:
            sys.stderr.write(stderr or "")
            return 1
        props = {"seed": args.seed, "why": w["why"]}
        for line in stderr.splitlines():
            m = re.match(r"note: input\.(\S+) = (.*)", line)
            if m:
                props[m.group(1)] = m.group(2)
        doc["workloads"][w["name"]] = props
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
