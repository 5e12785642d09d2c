#!/usr/bin/env python3
"""Builds the FeMux end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload femux_fleet --seed 1 --seconds 10 --trace 0

The C++ benchmark binary is configured and built (Release) into .bench_build/ at the
checkout root on first use; later runs only re-check it. The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 it holds every end-to-end metric of BENCHMARK.json, with
--trace 1 every per-layer metric; a layer the workload does not drive
reports 0. Exits non-zero, without a result line, when the sources, the
build or the run fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "femux_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FeMux sources (src/CMakeLists.txt) in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {step[:2]} exited {done.returncode}")


def complete(result, spec, trace):
    """Checks the result against BENCHMARK.json and fills undriven layers."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            fail(f"metric {name} is not a {'per-layer' if trace else 'end-to-end'} metric")
        if metric["unit"] != units[name]:
            fail(f"metric {name} has unit {metric['unit']}, expected {units[name]}")
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {missing}")
    if missing:
        print("layers this workload does not drive (reported as 0): " + ", ".join(missing))
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit}) for name, unit in units.items()
    }
    return result


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"workload {args.workload} exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line of femux_perfbench is not a JSON result")
    result = complete(result, spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
