#!/usr/bin/env python3
"""Reduced-scale self-check of the pathest benchmark.

    python3 perfbench/selfcheck.py

Run from the checkout root. For every workload in BENCHMARK.json, runs the
benchmark untraced and traced on a small graph for a short time, and
asserts that:
  * the last stdout line parses as JSON with exactly the result keys,
    and the run is correct with no failed operation;
  * every end-to-end metric (untraced) or per-layer metric (traced) of
    BENCHMARK.json is emitted, with its unit and a finite value, and every
    end-to-end value is positive;
  * every correctness check of the workload ran at least once, and
    failed_frac (and, untraced, the figures marked "(not gated)") were
    printed.
Finally it checks that the benchmark fails, without printing a result, in
a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every assertion holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3
SECONDS = "2"
SCALE = "0.1"

# Correctness checks each workload must run (untraced, traced).
CHECKS = {
    "build": (["build.mapped_equals_in_memory"],
              ["build.mapped_equals_in_memory"]),
    "serve_read": (["serve_read.response_equals_oracle"],
                   ["serve_read.response_equals_oracle",
                    "serve_read.replay_equals_oracle"]),
    "serve_update": (["serve_update.final_state_equals_rebuild"],
                     ["serve_update.final_state_equals_rebuild",
                      "serve_update.incremental_equals_full"]),
}

errors = []


def expect(cond, what):
    if not cond:
        errors.append(what)
        print("FAIL: " + what)


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
           "--scale", SCALE]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace):
    tag = "%s trace=%d" % (workload, trace)
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, "%s exit code %d: %s"
           % (tag, proc.returncode, proc.stderr[-500:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, tag + " printed nothing")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        expect(False, "%s last line is not JSON: %s" % (tag, err))
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           tag + " result keys")
    expect(result.get("correct") is True, tag + " not correct")
    expect(result.get("failed") == 0, tag + " failed operations")
    expect(isinstance(result.get("attempted"), int)
           and result["attempted"] >= 1, tag + " attempted < 1")
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    expect(sorted(metrics) == sorted(d["name"] for d in defs),
           tag + " metric names differ from BENCHMARK.json")
    for d in defs:
        m = metrics.get(d["name"])
        if m is None:
            continue
        expect(m.get("unit") == d["unit"], "%s %s unit" % (tag, d["name"]))
        value = m.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               "%s %s value" % (tag, d["name"]))
        if not trace:
            expect(value > 0, "%s %s is not positive" % (tag, d["name"]))
    ran = {}
    for line in lines:
        if line.startswith("check: "):
            name, count = line[len("check: "):].split(" ran=")
            ran[name] = int(count)
    for name in CHECKS[workload][trace]:
        expect(ran.get(name, 0) >= 1, "%s check %s never ran" % (tag, name))
    expect(any(l.startswith("metric: failed_frac = ") for l in lines),
           tag + " failed_frac not printed")
    if not trace:
        expect(any(l.startswith("metric: ") and l.endswith("(not gated)")
                   for l in lines), tag + " no ungated figure printed")
    print("ok: %s (%d metrics, checks %s)" % (tag, len(metrics), ran))


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "build", 0)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "bare directory run exited 0")
    expect(not proc.stdout.strip(), "bare directory run printed a result")
    print("ok: bare directory run fails (exit %d)" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory()
    if errors:
        print("%d self-check failures" % len(errors))
        sys.exit(1)
    print("self-check passed")


if __name__ == "__main__":
    main()
