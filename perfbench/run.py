#!/usr/bin/env python3
"""Builds and runs the crowdrl end-to-end benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark program
(Release) under .bench_build/perfbench; later calls only re-check the
build. The program's output is passed through; its last line is the JSON
result. The exit code is the program's (1 = a correctness check failed), or
2 when the build fails, 3 when the result does not match BENCHMARK.json and
4 when the run overstays its time limit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures once and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("the crowdrl sources (CMakeLists.txt, src/) are not in this checkout")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {' '.join(cmd)} failed: {err}")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step {' '.join(cmd)} exited {proc.returncode}")
            return None
    return os.path.join(ROOT, BUILD_DIR, target)


def expected_metrics(per_layer):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if per_layer else "end_to_end"]]


def check_result(line, per_layer):
    """Returns None when `line` is a well-formed result, else why not."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    names = expected_metrics(per_layer)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        return f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(names)}"
    return None


def run_benchmark(args):
    binary = build("perfbench")
    if binary is None:
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_build", "traces"), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", os.path.join(".bench_build", f"perfbench-{os.getpid()}.sock"),
           "--trace-out", os.path.join(".bench_build", "traces",
                                       f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited {proc.returncode}")
        return proc.returncode or 2
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(problem)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def self_test():
    binary = build("perfbench_test")
    if binary is None:
        return 2
    work = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(work, exist_ok=True)
    return subprocess.run([binary], cwd=work).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
