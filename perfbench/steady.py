"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed (``--first-seed`` onwards) on
each workload, with BENCHMARK.json's ``run_seconds``, and prints every
run's attempted and failed operations, then for each end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread -- the quartile distance as a share of the median -- against
the metric's bound.  A spread above the bound fails; one above a third
of the bound is marked as a warning.  Exits 1 when a spread fails, a
check fails, or the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"({time.perf_counter() - began:.0f} s)", flush=True)
            ok &= result["correct"]
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) > 1:
            print(f"{workload}: failed share differs between runs: "
                  f"{sorted(shares)}")
            ok = False
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            verdict = "ok"
            if spread > bound:
                verdict, ok = "FAIL", False
            elif spread > bound / 3:
                verdict = "warn"
            print(f"{workload:16s} {metric['name']:16s} median "
                  f"{median:12.6g} {metric['unit']:9s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:7.4f} bound {bound} "
                  f"{verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
