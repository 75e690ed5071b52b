"""The repository benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round runs in a child process
(``workload.py``) that is the leader of its own process group; a round
still running at its deadline is ended with its whole process tree, and
its unfinished plans count as failed.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.

``--trace 0`` sets the workload up in fresh processes several times and
reports the median set-up time, then starts campaign rounds while less
than ``--seconds`` have passed, or runs the served clients' rounds for
``--seconds``; either way only whole rounds are measured.  While a round
runs, the summed proportional set size of its process group is sampled
for ``peak_rss_mb``.  ``--trace 1`` runs one unit of work untraced and
then the same unit traced; the traced round gives the per-layer figures
and the difference of the two rounds' CPU seconds is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign_serial", "campaign_pool", "served_http")

#: Fresh-process set-ups per run, on top of each round's own set-up.
SETUP_PROBES = 11
#: Seconds a campaign round may take before its unfinished plans fail.
ROUND_DEADLINE_S = 60.0
#: Seconds a round's process may take beyond its measured phase.
ROUND_GRACE_S = 60.0
#: Tail percentile per workload: the highest whole percentile with at
#: least ten plans beyond it in one run (77 plans per campaign round,
#: at least one round a run; over 350 served plans in a 20 s run).
TAIL_PERCENTILE = {"campaign_serial": 85, "campaign_pool": 85,
                   "served_http": 95}
#: Served rounds per client in each half of a traced run.
TRACED_SERVED_ROUNDS = 3
#: Seconds between samples of a round's memory.
RSS_POLL_S = 0.05


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux), so pool workers
    left by a killed round can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _end_group(proc: subprocess.Popen) -> None:
    """Kill the round's process group and wait for every member."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def _child_env() -> dict:
    """This environment with the checkout's ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_round(workload: str, seed: int, out: Path, extra: list,
              timeout_s: float) -> dict:
    """One ``workload.py`` process; its ``result.json`` as a dict."""
    out.mkdir(parents=True)
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", workload, "--seed", str(seed),
               "--out", str(out), *extra]
    with open(out / "stdout.txt", "w") as stdout, \
            open(out / "stderr.txt", "w") as stderr:
        proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                                stdout=stdout, stderr=stderr,
                                start_new_session=True)
        peak_kb = 0
        deadline = time.monotonic() + timeout_s
        try:
            while proc.poll() is None and time.monotonic() < deadline:
                peak_kb = max(peak_kb, group_pss_kb(proc.pid))
                time.sleep(RSS_POLL_S)
        finally:
            _end_group(proc)
    result = out / "result.json"
    if not result.exists():
        tail = (out / "stderr.txt").read_text()[-2000:]
        _fail(f"round in {out} ended without a result (exit "
              f"{proc.returncode}):\n{tail}")
    return dict(json.loads(result.read_text()), peak_pss_kb=peak_kb)


def group_pss_kb(pgid: int) -> int:
    """Summed proportional set size, in KiB, of a process group's members.

    Pss splits each page among the processes that map it, so pages a
    pool worker shares with its parent after the fork count once.
    """
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[2]) != pgid:  # state, ppid, pgrp
                continue
            with open(f"/proc/{entry}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            continue  # the process ended while it was read
    return total


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb(rounds: list) -> float:
    """Peak RSS of this process plus the largest summed Pss of a round."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(r["peak_pss_kb"] for r in rounds)) / 1024.0


def end_to_end(workload: str, rounds: list, setups: list,
               setup_rounds: list) -> dict:
    done = [p for r in rounds for p in r["plans"]
            if p["latency_s"] is not None]
    latencies = [p["latency_s"] for p in done]
    points, plans = [], []
    for r in rounds:
        finished = [p for p in r["plans"] if p["latency_s"] is not None]
        if finished:
            points.append(sum(p["points"] for p in finished) / r["wall_s"])
            plans.append(len(finished) / r["wall_s"])
    return {
        "setup_s": statistics.median(setups),
        "points_per_s": statistics.median(points) if points else 0.0,
        "plans_per_s": statistics.median(plans) if plans else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(latencies)
        if latencies else 0.0,
        "latency_tail_ms": 1e3 * percentile(latencies,
                                            TAIL_PERCENTILE[workload])
        if latencies else 0.0,
        "peak_rss_mb": peak_rss_mb(rounds + setup_rounds),
    }


def pool_problems(seed: int, rounds: list) -> list:
    """Compare the pool's plan values with the serial digest."""
    serial = json.loads(subprocess.run(
        [sys.executable, str(HERE / "serial_digest.py"), "--seed", str(seed)],
        cwd=ROOT, env=_child_env(), check=True, capture_output=True,
        text=True, timeout=170).stdout)
    return [f"{p['label']}: pool values differ from serial"
            for r in rounds for p in r["plans"]
            if p["digest"] is not None and p["digest"] != serial[p["label"]]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no repro sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository")
    if sys.version_info < (3, 11):
        _fail("the benchmark needs Python >= 3.11 (campaign TOML)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = ROOT / ".perfbench" / "runs" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    _adopt_orphans()
    served = args.workload == "served_http"
    campaign_timeout = ROUND_DEADLINE_S + ROUND_GRACE_S

    def round_(name: str, extra: list, timeout_s: float) -> dict:
        return run_round(args.workload, args.seed, out / name, extra,
                         timeout_s)

    if args.trace:
        unit = (["--rounds", str(TRACED_SERVED_ROUNDS)] if served
                else ["--deadline", str(ROUND_DEADLINE_S)])
        plain = round_("plain", unit, campaign_timeout)
        traced = round_("traced", unit + ["--trace"], campaign_timeout)
        rounds = [plain, traced]
        figures = dict(traced.get("figures", {}))
        figures["trace.overhead_s"] = traced["cpu_s"] - plain["cpu_s"]
        metrics = {m["name"]: {"value": figures.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        setup_rounds = [round_(f"setup{i}", ["--setup-only"], 120)
                        for i in range(SETUP_PROBES)]
        start = time.perf_counter()
        if served:
            rounds = [round_("round0", ["--seconds", str(args.seconds)],
                             args.seconds + ROUND_GRACE_S)]
        else:
            rounds = []
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(round_(f"round{len(rounds)}",
                                     ["--deadline", str(ROUND_DEADLINE_S)],
                                     campaign_timeout))
        setups = [r["setup_s"] for r in setup_rounds + rounds]
        values = end_to_end(args.workload, rounds, setups, setup_rounds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    problems = [p for r in rounds for p in r["problems"]]
    if args.workload == "campaign_pool":
        problems += pool_problems(args.seed, rounds)
    plans = [p for r in rounds for p in r["plans"]]
    failed = sum(p["latency_s"] is None for p in plans)
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(plans),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
