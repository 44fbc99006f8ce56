#!/usr/bin/env python3
"""Smoke test of the tcfill benchmark (tcbench/run.py) on tiny inputs.

Usage (from the repository root):
    python3 tcbench/smoke_test.py

For every workload in BENCHMARK.json, untraced and traced, it checks
that the run passes its correctness checks and prints exactly the
declared metrics, each with its unit, both as a text line and in the
final JSON object. It then checks that a deliberately wrong digest pin
is reported as a failure (non-zero exit, "correct": false), and that a
missing pin file stops the run without a result line.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")

# Text lines printed beside the JSON metrics.
TEXT_METRICS = {
    "sweep": ["ipc_gain_pct", "op_p99_us"],
    "sampled": ["op_p99_us"],
    "service": ["hit_p50_us", "hit_p99_us", "store_log_kb"],
}


def run(workload, trace, pins=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.3",
           "--trace", str(trace), "--tiny"]
    if pins:
        cmd += ["--pins", pins]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def last_json(stdout):
    try:
        return json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)
            print(f"FAIL: {msg}")

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            tag = f"{wl} --trace {trace}"
            p = run(wl, trace)
            res = last_json(p.stdout)
            check(p.returncode == 0, f"{tag}: exit {p.returncode}\n"
                  f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
            if res is None:
                check(False, f"{tag}: no JSON result line")
                continue
            check(res.get("correct") is True and res.get("failed") == 0,
                  f"{tag}: correctness checks failed")
            check(isinstance(res.get("attempted"), int) and
                  res["attempted"] >= 1, f"{tag}: attempted < 1")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: metrics {sorted(got)} != "
                  f"declared {sorted(want)} (or units differ)")
            for name, unit in want.items():
                pat = rf"^metric {re.escape(name)} +\S+ {re.escape(unit)}$"
                check(re.search(pat, p.stdout, re.M),
                      f"{tag}: no text line for {name} [{unit}]")
            check(re.search(r"^fail_ratio ", p.stdout, re.M),
                  f"{tag}: no fail_ratio line")
            if trace == 0:
                for name in TEXT_METRICS[wl]:
                    check(re.search(rf"^(\S+: )?{name} ", p.stdout, re.M),
                          f"{tag}: no {name} line")
            print(f"ok: {tag}")

    # A wrong pin must fail the run, not pass it.
    os.makedirs(RUN_DIR, exist_ok=True)
    wrong = os.path.join(RUN_DIR, "wrong-pins.txt")
    with open(os.path.join(BENCH_DIR, "pins.txt")) as f:
        lines = f.read().split("\n")
    target = "compress@1/none/20000 "
    idx = [i for i, l in enumerate(lines) if l.startswith(target)]
    check(len(idx) == 1, f"pins.txt has no single {target.strip()} pin")
    if idx:
        key, digest = lines[idx[0]].split()
        flipped = format(int(digest, 16) ^ 1, "016x")
        lines[idx[0]] = f"{key} {flipped}"
        with open(wrong, "w") as f:
            f.write("\n".join(lines))
        p = run("sweep", 0, pins=wrong)
        res = last_json(p.stdout)
        check(p.returncode != 0, "wrong pin: exit code 0")
        check(res is not None and res["correct"] is False and
              res["failed"] >= 1, "wrong pin: not reported as failed")
        check("digest mismatch for compress@1/none/20000" in p.stdout,
              "wrong pin: mismatch not named")
        print("ok: wrong pin is reported as a failure")
        os.remove(wrong)

    p = run("sweep", 0, pins=os.path.join(RUN_DIR, "no-such-pins.txt"))
    check(p.returncode != 0 and last_json(p.stdout) is None,
          "missing pin file: run did not stop without a result")
    print("ok: missing pin file stops the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
