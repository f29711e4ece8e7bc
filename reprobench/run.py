#!/usr/bin/env python3
"""End-to-end benchmark of reprokit.

One run:
    python3 reprobench/run.py --workload clustered --seed 1 --seconds 20 --trace 0

builds the benchmark (reprobench/CMakeLists.txt, Release) into .bench_build/
at the checkout root, runs the harness and prints its result as the last
line of standard output: a JSON object with "correct", "attempted",
"failed" and "metrics". --trace 0 reports the end-to-end metrics; --trace 1
runs an untraced and then a traced pass of the same seed and reports the
per-layer metrics, writing spans and self times to .bench_build/traces/.

Steadiness check:
    python3 reprobench/run.py --steadiness [--workload W] [--runs 10]

runs each workload --runs times with distinct seeds, then again with a
second set of seeds, and prints each end-to-end metric's spread (quartile
distance over median) and the shift between the two sets' medians next to
the bound BENCHMARK.json gives it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("clustered", "sparse")
RUN_TIMEOUT_S = 170


def log(message):
    print("reprobench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness and repro-cli; False on error."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("reprokit sources not found in " + ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr) == 0


def run_once(workload, seed, seconds, trace):
    """Runs the harness once; returns its parsed result or None."""
    # Relative to the checkout root, which is the working directory of the
    # harness and the daemon: the daemon's unix socket lives in here, and a
    # socket path may not exceed 107 bytes however deep the checkout is.
    work = os.path.join(".bench_build", "work-%d" % os.getpid())
    command = [
        os.path.join(BUILD, "reprobench"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", work,
        "--cli", os.path.join(BUILD, "reprokit", "src", "cli", "repro-cli"),
        "--trace-dir", os.path.join(BUILD, "traces"),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("harness failed with exit code %d" % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness printed no result")
        return None


def spread(values):
    """Quartile distance over median, as the acceptance check computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def steadiness(workloads, runs, seconds, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        sets = []
        for offset in (0, 1000):
            values = {}
            for i in range(runs):
                seed = first_seed + offset + i
                started = time.monotonic()
                result = run_once(workload, seed, seconds, 0)
                if result is None or not result["correct"]:
                    log("run %s seed %d failed" % (workload, seed))
                    return False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                log("%s seed %d (%.0f s): %s" % (
                    workload, seed, time.monotonic() - started, json.dumps(
                        {k: round(m["value"], 4) for k, m in result["metrics"].items()})))
            sets.append(values)
        print("\n%s: %d runs per set" % (workload, runs))
        print("%-24s %9s %9s %9s %9s  %s" % ("metric", "spread1", "spread2",
                                              "shift", "bound", "verdict"))
        for name, (bound, better) in sorted(bounds.items()):
            first, second = sets[0].get(name), sets[1].get(name)
            if not first or not second:
                print("%-24s missing" % name)
                ok = False
                continue
            s1, s2 = spread(first), spread(second)
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            steady = name == "setup_s" or max(s1, s2) <= bound
            verdict = "ok" if steady and worse <= bound else "FAIL"
            if verdict == "ok" and name != "setup_s" and max(s1, s2) > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            ok = ok and verdict != "FAIL"
            print("%-24s %9.4f %9.4f %9.4f %9.4f  %s" % (name, s1, s2, worse,
                                                          bound, verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not build():
        log("build failed")
        return 1
    if args.steadiness:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return 0 if steadiness(workloads, args.runs, args.seconds, args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
