#!/usr/bin/env python3
"""Build and run the APOLLO end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first run configures and compiles the library sources under src/
together with the program in perfbench/src/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only re-check the build. The program builds the workload's inputs
from the seed, measures for the given seconds, checks the outputs and
prints one JSON result as the last line of stdout. This script checks
that line against BENCHMARK.json: every metric must be declared there
with the same unit, an untraced run reports every end-to-end metric,
and a traced run reports every declared per-layer metric (0 for a
layer the workload does not run). Exit code 0 only
when the build, the run and every correctness check succeeded.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("design_n1", "select_500k", "trace_replay", "serve_fleet")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir, env):
    """Configure once, then (re)build the program; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def check_result(line, spec, trace):
    """Validate the program's result line; complete the per-layer set."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are not exactly "
                         "correct/attempted/failed/metrics")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        if declared.get(name) != metric["unit"]:
            raise ValueError(f"metric {name} ({metric['unit']}) is not "
                             "declared in BENCHMARK.json with that unit")
    if trace:
        for name, unit in declared.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    elif result["correct"]:
        missing = set(declared) - set(result["metrics"])
        if missing:
            raise ValueError("end-to-end metrics missing: " +
                             ", ".join(sorted(missing)))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from a checkout root: src/CMakeLists.txt not found")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found in the current directory")
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    # Compiler and run scratch files stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(bench_dir, build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(lines[-1] if lines else "", spec,
                              args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"bad result line: {e}", 1)
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
