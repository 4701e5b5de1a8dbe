#!/usr/bin/env python3
"""Build libtvs and run one workload of its benchmark in its own process.

    python3 tvbench/run.py --workload serial-cache --seed 1 --seconds 10 --trace 0
    python3 tvbench/run.py --self-check

Run from the repository root.  The first call configures and builds the
library and the `tvbench` program into .bench_build/ (CMake, Release);
later calls only re-check the build.  The program runs with a scrubbed
environment: every TVS_* and OpenMP variable is removed, so a plan pin, the
tuner, a plan store or a thread override cannot change what runs.

Standard output ends with one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones; a {"record": ...} line before it says
what ran (seed, nproc, CPU model, THP mode, each problem's plan and the
backend its kernel resolved to).  Records and Chrome trace files are also
written to .bench_build/out/.

--self-check proves the output gate can fail: it runs serial-cache once as
is and once with every expected output corrupted, and exits 0 only when the
first passes every check and the second fails them.
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
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "tvbench", "tvbench")
WORKLOADS = ("serial-cache", "serial-llc", "tiled-par", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"tvbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "solver", "solver.hpp")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"library source {need} not found next to tvbench/; "
                 "run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        bdir = os.path.join(BUILD, "tvbench")
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "tvbench",
                      "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-8000:])
                fail(f"build step failed: {' '.join(cmd)}")


def clean_env():
    drop = ("TVS_", "OMP_", "GOMP_", "KMP_")
    return {k: v for k, v in os.environ.items() if not k.startswith(drop)}


def run(workload, seed, seconds, trace, extra=()):
    """Runs the program; returns (stdout lines, parsed result object)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{workload} exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} printed no result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result: {lines[-1][:200]}")
    return lines, result


def self_check():
    seconds = 2
    _, clean = run("serial-cache", 1, seconds, 0)
    _, bad = run("serial-cache", 1, seconds, 0, ("--corrupt-expected",))
    pf_clean = clean["metrics"]["pass_frac"]["value"]
    pf_bad = bad["metrics"]["pass_frac"]["value"]
    ok = (clean["correct"] and pf_clean == 1.0 and not bad["correct"]
          and pf_bad < 1.0)
    print(json.dumps({"self_check": "pass" if ok else "FAIL",
                      "pass_frac": pf_clean, "pass_frac_corrupted": pf_bad,
                      "failed_corrupted": bad["failed"]}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    t0 = time.monotonic()
    build()
    print(f"tvbench/run.py: build ready in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    if args.self_check:
        return self_check()
    lines, _ = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
