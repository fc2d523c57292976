#!/usr/bin/env python3
"""Run one jsched benchmark workload and print its result.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. On first use this builds perfbench/ (a
standalone CMake package over ../src, Release) into $CARGO_TARGET_DIR,
default .bench_build. The workload then runs with a temporary directory
under the build tree for its JWB1 trace and journals, removed at exit.

Output: progress and every metric by name and unit, then as the last line
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of plain runs; with
--trace 1 they are the per-layer split from a traced run. The metric names
are checked against BENCHMARK.json. The exit code is 0 only when the build
succeeded, every correctness gate passed and the names matched.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("grid_ctc", "stream_ctc", "serve_backlog", "serve_resilient")
DEFAULT_SEED = 19990412
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    """Configure once, then (re)build; all build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def default_seconds():
    try:
        with open("BENCHMARK.json") as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.seed < 0 or seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    os.makedirs(build_root, exist_ok=True)
    binary = build(source_dir, os.path.join(build_root, "perfbench"))

    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    scratch = tempfile.mkdtemp(prefix="run-", dir=build_root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--spans", spans]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("the last output line is not the JSON result")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        fail("emitted metrics differ from BENCHMARK.json: missing "
             f"{sorted(declared - set(result['metrics']))}, undeclared "
             f"{sorted(set(result['metrics']) - declared)}")


if __name__ == "__main__":
    main()
