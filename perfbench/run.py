#!/usr/bin/env python3
"""Build and run the pathest benchmark of record.

    python3 perfbench/run.py --workload build|serve_read|serve_update \
        --seed N --seconds S --trace 0|1 [--scale X]

Run from the checkout root. Builds perfbench/ (which compiles the pathest
library from src/) with CMake into .bench_build/perfbench-cmake, then runs
the benchmark binary from the root, passing it the metric list of
BENCHMARK.json for the mode (end_to_end untraced, per_layer traced). Build
output goes to stderr; the last line of stdout is the benchmark's JSON
result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        sys.exit("perfbench: pathest sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "serve_read", "serve_update"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="graph scale (1.0 = the paper's moreno size)")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = spec["per_layer" if args.trace else "end_to_end"]
    metrics = ",".join("%s:%s" % (d["name"], d["unit"]) for d in defs)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--metrics", metrics, "--scale", repr(args.scale)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
