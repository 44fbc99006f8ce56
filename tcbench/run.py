#!/usr/bin/env python3
"""Build and run the tcfill benchmark.

Usage (from the repository root):
    python3 tcbench/run.py --workload sweep|sampled|service \\
        --seed N --seconds S --trace 0|1 [--tiny] [--pins FILE]

Builds the tcbench binary from source into .bench_build/tcbench (the
first run compiles the simulator libraries; later runs are a no-op
build), runs one workload for --seconds and prints its metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

With --trace 1 the binary also writes its spans as Chrome trace events
to .bench_build/run/<workload>.trace.json, and this script validates
that file with tools/check_stats_json.py --validate-trace-events; an
invalid file counts as a failed operation.

Exits 0 when every correctness check passed, non-zero otherwise (and
without a result line when the build fails).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tcbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "tcbench")
PINS = os.path.join(BENCH_DIR, "pins.txt")
CHECKER = os.path.join(ROOT, "tools", "check_stats_json.py")

# Every run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"tcbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; False on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no simulator sources under {ROOT}/src")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    res = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                         stdout=sys.stderr)
    return res.returncode == 0 and os.access(BINARY, os.X_OK)


def run(args):
    """Run the binary; returns (exit code, parsed result or None)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    trace_out = os.path.join(RUN_DIR, f"{args.workload}.trace.json")
    cmd = [BINARY, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--pins", args.pins,
           "--scratch", os.path.relpath(RUN_DIR, ROOT)]
    if args.trace:
        if os.path.exists(trace_out):
            os.remove(trace_out)
        cmd += ["--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"tcbench exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"tcbench exited {proc.returncode} without a result line")
        return proc.returncode or 1, None
    for line in lines[:-1]:
        print(line)

    if args.trace and result.get("correct") is not None:
        ok = os.path.exists(trace_out) and subprocess.run(
            [sys.executable, CHECKER, "--validate-trace-events", trace_out],
            stdout=sys.stderr).returncode == 0
        if not ok:
            print(f"FAIL: trace-event file {trace_out} is invalid")
            result["correct"] = False
            result["failed"] += 1
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "sampled", "service"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs (smoke test)")
    ap.add_argument("--pins", default=PINS,
                    help="digest pin file (default: tcbench/pins.txt)")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1
    code, result = run(args)
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    if code == 0 and not result["correct"]:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
