#!/usr/bin/env python3
"""One-command benchmark of cspls: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload small_stdio --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

--trace 0 drives the shipped cspls_serve (default CMake build) with the
workload and prints every end-to-end metric; --trace 1 pushes the same
generated inputs through each layer in-process and prints every per-layer
metric.  The metric names come from BENCHMARK.json.  The last stdout line is
the JSON result {"correct", "attempted", "failed", "metrics"} ("all" runs
every workload in turn and ends with one such result per workload, keyed by
name); the exit code is non-zero when any output failed the correctness
gate.  Build products, per-run result documents and trace spans go under
$CARGO_TARGET_DIR (default .bench_build) in the repository root.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small_stdio", "race_http", "preempt_stdio")
RUNNER_TIMEOUT_S = 175  # the runner's own watchdog fires at 170 s


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds cspls_serve + the runner; serialized by
    a lock so concurrent runs in one checkout never race the build."""
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                        "cspls_serve", "perfbench_runner"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir


def cmake_fingerprint(cmake_dir):
    wanted = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "CSPLS_NATIVE",
              "CSPLS_SIMD", "CSPLS_FAULT_INJECTION", "CSPLS_IPO")
    found = {}
    with open(os.path.join(cmake_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            key, _, rest = line.partition(":")
            if key in wanted and "=" in rest:
                found[key] = rest.split("=", 1)[1].strip()
    return found


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args, workload, cmake_dir, results_dir):
    """Runs one workload; prints its report and returns its result (None
    when the runner produced none)."""
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    cmd = [os.path.join(cmake_dir, "perfbench_runner"),
           "trace" if args.trace else "e2e",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--spans", os.path.join(results_dir, stem + ".spans.json")]
    else:
        cmd += ["--serve", os.path.join(cmake_dir, "cspls", "cspls_serve")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: runner failed with exit code %d" % proc.returncode)
        return None
    doc = json.loads(lines[-1])
    doc["detail"]["fingerprint"].update(cmake_fingerprint(cmake_dir))
    doc["detail"]["fingerprint"]["nproc"] = os.cpu_count()
    doc["claim"] = None  # this benchmark states no gain

    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in doc["metrics"]]
    problems = list(doc["problems"]) + ["metric missing: " + n for n in missing]
    correct = bool(doc["correct"]) and not missing

    print("workload %s  seed %d  seconds %g  trace %d" %
          (workload, args.seed, args.seconds, args.trace))
    print("fingerprint " + json.dumps(doc["detail"]["fingerprint"], sort_keys=True))
    for name in names:
        if name in doc["metrics"]:
            m = doc["metrics"][name]
            print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d  failed %d  correct %s" %
          (doc["attempted"], doc["failed"], correct))
    for p in problems:
        print("  problem: " + p)
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return {
        "correct": correct,
        "attempted": max(1, int(doc["attempted"])),
        "failed": int(doc["failed"]),
        "metrics": {n: doc["metrics"][n] for n in names if n in doc["metrics"]},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "serve", "serve_main.cpp")):
        log("perfbench: no cspls source tree next to perfbench/; nothing to build")
        return 2
    out = build_dir()
    t0 = time.monotonic()
    cmake_dir = build(out)
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t0))
    results_dir = os.path.join(out, "results")
    os.makedirs(results_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(args, w, cmake_dir, results_dir) for w in workloads}
    if any(r is None for r in results.values()):
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
