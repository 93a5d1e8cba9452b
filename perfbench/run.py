#!/usr/bin/env python3
# Copyright 2026 The streambid Authors
"""Builds and runs the streambid benchmark.

One run:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the program library and the benchmark binaries from source into
.bench_build/perfbench (a no-op when up to date), runs one workload and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

Every workload, both modes, as one table:
  python3 perfbench/run.py --all [--seed N] [--seconds S]

Exits non-zero, without a result line, when the program cannot be built
or a run crashes; a run whose output checks fail prints its result with
"correct": false and exits 1.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output only on error."""
    def run(cmd):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd)
    jobs = str(max(1, min(multiprocessing.cpu_count(), 8)))
    run(["cmake", "--build", BUILD_DIR, "-j", jobs])


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_binary(binary, args):
    """Runs one benchmark binary; returns (parsed last line, other lines)."""
    cmd = [os.path.join(BUILD_DIR, binary)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % binary)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s exited %d without a result" % (binary, proc.returncode))
    return json.loads(lines[-1]), lines[:-1]


def run_once(spec, workload, seed, seconds, trace):
    """One driver-contract run: returns (result dict, info lines)."""
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)]
    if trace:
        trace_out = os.path.join(ROOT, ".bench_build",
                                 "trace_%s.json" % workload)
        parts = [run_binary("perfbench", common + ["--mode", "traced",
                                                  "--trace-out", trace_out]),
                 run_binary("perfbench_alloc", common + ["--mode", "alloc"])]
        wanted = spec["per_layer"]
    else:
        parts = [run_binary("perfbench", common + ["--mode", "timed"])]
        wanted = spec["end_to_end"]
    correct = all(p["correct"] for p, _ in parts)
    errors = [e for p, _ in parts for e in p["errors"]]
    values = {}
    for p, _ in parts:
        values.update(p["metrics"])
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        else:
            correct = False
            errors.append("metric %s was not measured" % m["name"])
    info = [line for _, lines in parts for line in lines]
    info += ["# check failed: " + e for e in errors]
    info.append("# %s: %d offers, shed fraction %.3f, %d timed periods, "
                "%d workers" % (workload, parts[0][0]["attempted"],
                                values.get("shed_fraction", 0.0),
                                values.get("timed_periods", 0),
                                values.get("workers", 0)))
    result = {"correct": correct,
              "attempted": sum(p["attempted"] for p, _ in parts),
              "failed": sum(p["failed"] for p, _ in parts),
              "metrics": metrics}
    return result, info


def run_all(spec, seed, seconds):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, info = run_once(spec, w["name"], seed, seconds, trace)
            ok = ok and result["correct"]
            print("== %s (%s): correct=%s attempted=%d failed=%d" % (
                w["name"], "per-layer" if trace else "end-to-end",
                result["correct"], result["attempted"], result["failed"]))
            for line in info:
                print(line)
            for name, m in result["metrics"].items():
                print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not args.all and args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    build()
    if args.all:
        sys.exit(0 if run_all(spec, args.seed, seconds) else 1)
    result, info = run_once(spec, args.workload, args.seed, seconds,
                            args.trace)
    for line in info:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
