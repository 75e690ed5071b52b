"""Per-layer figures from the spans of one traced round.

Sums of host time use each span's thread CPU seconds, so plans that
share the interpreter on several threads are not counted twice; request
latencies (``*_ms_p50``) use wall time.  A figure is 0 when the round
never called that layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from spans import ATTRS, CPU, END, ID, NAME, PARENT, PLAN, START

#: The campaign's point functions (the registry's ``adaptive_loop`` is
#: not part of ``paper_space``).
POINTS = ("gate_metrics", "gate_thermal", "sram_latency", "sram_handshake",
          "dualrail_counter", "charge_to_digital", "harvester_power",
          "queueing_point", "mc_gate", "mc_sram_write")


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def batch_seconds(spans: List[list]) -> float:
    """CPU seconds of the batched Monte-Carlo runs among *spans*."""
    return sum(s[CPU] for s in spans if s[NAME] == "runner.run"
               and (s[ATTRS]["executor"] or "").startswith("batched")
               and s[ATTRS]["kind"] == "montecarlo")


def layer_metrics(spans: List[list], plans: List[dict]) -> Dict[str, object]:
    """Every per-layer figure the benchmark reports, from one round."""
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)

    def cpu_sum(name: str) -> float:
        return sum(s[CPU] for s in by_name[name])

    def wall_ms_p50(name: str) -> float:
        return _p50([1e3 * (s[END] - s[START]) for s in by_name[name]])

    figures: Dict[str, object] = {
        "campaign.compile_s": cpu_sum("campaign.compile")}
    for point in POINTS:
        figures[f"campaign.run_s.{point}"] = cpu_sum(f"campaign.point.{point}")

    submitted: Dict[str, List[float]] = defaultdict(list)
    for span in sorted(by_name["session.submit"], key=lambda s: s[START]):
        submitted[span[PLAN]].append(span[START])
    waits = []
    for span in sorted(by_name["runner.run"], key=lambda s: s[START]):
        if submitted.get(span[PLAN]):
            waits.append(span[START] - submitted[span[PLAN]].pop(0))
    figures["session.queue_wait_s"] = sum(waits)

    runs = [s[ATTRS] for s in by_name["runner.run"]]
    executors = [r["executor"] or "" for r in runs]
    pool = sum(e.startswith("fork-pool") for e in executors)
    at_two = sum(r["workers"] >= 2 for r in runs)
    figures.update({
        "runner.plans.serial": sum(e == "serial" for e in executors),
        "runner.plans.pool": pool,
        "runner.plans.batched": sum(e.startswith("batched")
                                    for e in executors),
        "runner.pool_share": pool / at_two if at_two else 0.0,
        "runner.pool_start_s": sum(s[END] - s[START]
                                   for s in by_name["runner.pool_start"]),
    })

    conversions = by_name["sensors.convert"]
    convert_ids = {s[ID] for s in conversions}
    convert_s = sum(s[CPU] for s in conversions)
    events = sum(s[ATTRS]["events"] for s in by_name["sim.run"]
                 if s[PARENT] in convert_ids)
    pulses = sum(s[ATTRS]["pulses"] for s in conversions)
    figures.update({
        "sensors.conversions": len(conversions),
        "sensors.convert_s": convert_s,
        "sim.events": events,
        "sim.events_per_s": events / convert_s if convert_s else 0.0,
        "selftimed.pulses_per_s": pulses / convert_s if convert_s else 0.0,
        "models.batch_s": batch_seconds(spans),
    })

    gets = by_name["cache.get"]
    hits = sum(bool(s[ATTRS]["hit"]) for s in gets)
    figures.update({
        "cache.gets": len(gets),
        "cache.puts": len(by_name["cache.put"]),
        "cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "cache.bytes_read": sum(s[ATTRS]["bytes"]
                                for s in by_name["objstore.get"]),
        "cache.bytes_written": sum(s[ATTRS]["bytes"]
                                   for s in by_name["objstore.put"]),
        "objstore.get_ms_p50": wall_ms_p50("objstore.get"),
        "objstore.put_ms_p50": wall_ms_p50("objstore.put"),
        "serve.submit_ms_p50": wall_ms_p50("serve.submit"),
        "serve.wait_ms_p50": wall_ms_p50("serve.wait"),
        "serve.server_ms_p50": _p50([p["server_ms"] for p in plans
                                     if "server_ms" in p]),
        "serve.queue_wait_ms_p50": _p50([p["queue_ms"] for p in plans
                                         if "queue_ms" in p]),
        "serve.refused": sum(bool(p.get("refused")) for p in plans),
    })
    return figures
