#!/usr/bin/env python3
"""Builds the tsvd benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, and so do the run's scratch files, its trace
and its full result. The human-readable report goes to stdout; the last line of
stdout is one JSON object with "correct", "attempted", "failed" and "metrics":
every end_to_end metric of BENCHMARK.json with --trace 0, every per_layer metric
with --trace 1. Exit 0 when the outputs were correct, 1 on a correctness
violation, 2 on bad arguments, 3 when the build or the run itself failed (no
result line is printed then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign", "fleet", "hotpath_private", "hotpath_shared"]
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(3)


def build(build_dir):
    """Configures once, then rebuilds tsvdbench (a no-op when nothing changed)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "tsvdbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "tsvdbench")


def overhead_table(results_dir, seed, traced):
    """Prints each workload's traced end-to-end metrics beside its untraced ones,
    when an untraced run with the same seed left its result behind."""
    print("tracing overhead (traced vs. untraced, same seed):")
    for workload in WORKLOADS:
        path = os.path.join(results_dir, "%s-%d-trace0.json" % (workload, seed))
        if not os.path.exists(path):
            print("  %-16s no untraced run with seed %d" % (workload, seed))
            continue
        with open(path) as f:
            untraced = json.load(f)["metrics"]
        for name, m in untraced.items():
            t = traced.get("traced.%s.%s" % (workload, name))
            if t is None or not m["value"]:
                continue
            change = 100.0 * (t["value"] - m["value"]) / m["value"]
            print("  %-16s %-12s %14.6g %14.6g %-4s %+7.1f%%"
                  % (workload, name, m["value"], t["value"], m["unit"], change))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(out_root, "perfbench"))
    scratch = os.path.join(out_root, "perfbench-scratch", str(os.getpid()))
    results_dir = os.path.join(out_root, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--scratch=" + scratch,
               "--trace_out=" + os.path.join(results_dir, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if result is None or proc.returncode not in (0, 1):
        fail("tsvdbench exited %d without a result" % proc.returncode)
    with open(os.path.join(results_dir, "%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)
    if args.trace:
        overhead_table(results_dir, args.seed, result["metrics"])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s (%s) missing from the result" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
