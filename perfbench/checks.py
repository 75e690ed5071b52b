"""Correctness checks on campaign rows, computed apart from the program.

Each check takes one planned run (its point function, technology,
parameters and axis values) and the run's per-point values, and returns
a list of problems (empty when the rows are right).  The references are
either closed-form results written here from their textbook definitions
(Erlang C for M/M/c queues, the RC charge of a sampling capacitor) or
properties the paper's method must have (monotone counts, a saturating
counter, delay falling with supply).
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

#: ChargeToDigitalConverter's sampling switch, as the campaign builds it
#: (the registry passes only capacitance and counter width).
SAMPLING_TIME_S = 1e-6
SWITCH_RESISTANCE_OHM = 1e3


def _close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def erlang_c_latency(arrival: float, service: float, servers: int) -> float:
    """Mean M/M/c sojourn time: Erlang-C wait plus one service time."""
    a = arrival / service
    rho = a / servers
    terms = [a ** k / math.factorial(k) for k in range(servers)]
    top = a ** servers / math.factorial(servers) / (1.0 - rho)
    wait_probability = top / (sum(terms) + top)
    return wait_probability / (servers * service - arrival) + 1.0 / service


def check_queueing(params: Mapping, axis: Sequence[float],
                   values: Mapping[str, List[float]]) -> List[str]:
    arrival = float(params["arrival_rate"])
    service = float(params["service_rate"])
    problems = []
    for i, servers in enumerate(axis):
        c = int(round(servers))
        rho = arrival / (c * service)
        stable = rho < 1.0
        if not _close(values["utilisation"][i], rho, 1e-12):
            problems.append(f"c={c}: utilisation {values['utilisation'][i]} "
                            f"!= {rho}")
        if values["stable"][i] != float(stable):
            problems.append(f"c={c}: stable {values['stable'][i]} "
                            f"but rho={rho}")
        latency = values["mean_latency"][i]
        if stable:
            expected = erlang_c_latency(arrival, service, c)
            if not _close(latency, expected, 1e-9):
                problems.append(f"c={c}: mean latency {latency} != "
                                f"Erlang C {expected}")
        elif not math.isinf(latency):
            problems.append(f"c={c}: unstable queue reports finite "
                            f"latency {latency}")
    return problems


def check_conversion(params: Mapping, vdd_min: float,
                     axis: Sequence[float],
                     values: Mapping[str, List[float]]) -> List[str]:
    capacitance = float(params["capacitance_pf"]) * 1e-12
    width = int(params["counter_width"])
    rc = SWITCH_RESISTANCE_OHM * capacitance
    problems = []
    previous = -1.0
    for i, voltage in enumerate(axis):
        sampled_charge = capacitance * voltage * (
            1.0 - math.exp(-SAMPLING_TIME_S / rc))
        expected = sampled_charge - capacitance * values["final_voltage"][i]
        consumed = values["charge_consumed"][i]
        if not _close(consumed, expected, 1e-9, scale=sampled_charge):
            problems.append(f"V={voltage}: charge consumed {consumed} != "
                            f"sampled - remaining {expected}")
        count = values["count"][i]
        if voltage < vdd_min and count != 0.0:
            problems.append(f"V={voltage} < vdd_min={vdd_min}: count {count}")
        if count < previous:
            problems.append(f"V={voltage}: count {count} fell from "
                            f"{previous}")
        if count > 2 ** width - 1:
            problems.append(f"V={voltage}: count {count} exceeds "
                            f"{2 ** width - 1}")
        previous = count
    return problems


def check_gate(axis: Sequence[float],
               values: Mapping[str, List[float]]) -> List[str]:
    problems = []
    for i in range(1, len(axis)):
        if not values["delay"][i] < values["delay"][i - 1]:
            problems.append(f"Vdd={axis[i]}: delay did not fall")
        if not values["energy"][i] > values["energy"][i - 1]:
            problems.append(f"Vdd={axis[i]}: energy did not rise")
    return problems


def check_dualrail(axis: Sequence[float],
                   values: Mapping[str, List[float]]) -> List[str]:
    return [f"Vdd={axis[i]}: sequence_correct={flag}"
            for i, flag in enumerate(values["sequence_correct"])
            if flag != 1.0]


def check_run(point: str, technology: str, params: Mapping,
              axis: Sequence[float], vdd_min: float,
              values: Mapping[str, List[float]]) -> List[str]:
    """Every check that applies to one planned run's rows."""
    if point == "queueing_point":
        problems = check_queueing(params, axis, values)
    elif point == "charge_to_digital":
        problems = check_conversion(params, vdd_min, axis, values)
    elif point == "gate_metrics":
        problems = check_gate(axis, values)
    elif point == "dualrail_counter":
        problems = check_dualrail(axis, values)
    else:
        problems = []
    return [f"{point}[{technology}] {p}" for p in problems]

