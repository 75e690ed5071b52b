"""Span tracing around the repro layers, installed from outside ``src/``.

:func:`install` wraps public functions of each layer (campaign compile,
registry point functions, ``Session.submit``, ``Executor.run``, the fork
pool start, ``ChargeToDigitalConverter.convert``, ``Simulator.run``,
``ResultCache`` loads and stores, ``ObjectStore`` requests and the
``ServiceClient`` calls), so every call records one span: an id, the id
of the span that caused it, its name, the plan it belongs to, wall start
and end, thread CPU seconds and a few attributes.  Spans stay in memory
and are written out when the round ends.

Pool workers are forked from a thread that is inside an ``Executor.run``
span, so their spans keep that parent and plan id.  A worker can be
terminated between tasks, so each worker appends its own spans to the
sink file whenever its outermost span closes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

# Span fields, in list order.
ID, PARENT, NAME, PLAN, START, END, CPU, ATTRS = range(8)


class Tracer:
    """In-memory span recorder shared by every wrapper of one round."""

    def __init__(self, sink_path: str) -> None:
        self.sink_path = sink_path
        self.home_pid = self._pid = os.getpid()
        self.spans: List[list] = []
        self.plan_names: Dict[int, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._runs = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, plan: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if plan is None and parent is not None:
            plan = parent[PLAN]
        span = [f"{os.getpid()}:{next(self._ids)}",
                parent[ID] if parent else None, name, plan,
                time.perf_counter(), 0.0, time.thread_time(), None]
        stack.append(span)
        return span

    def close(self, span: list, attrs: Optional[dict] = None) -> None:
        span[END] = time.perf_counter()
        span[CPU] = time.thread_time() - span[CPU]
        span[ATTRS] = attrs
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        pid = os.getpid()
        if pid != self._pid:
            # First span closed in a forked worker: the inherited spans
            # belong to the parent, which writes them itself.
            self._pid, self.spans = pid, []
        self.spans.append(span)
        if pid != self.home_pid and not any(
                s[ID].startswith(f"{pid}:") for s in stack):
            self._flush_worker()

    def _flush_worker(self) -> None:
        data = "".join(json.dumps(s) + "\n" for s in self.spans).encode()
        self.spans = []
        fd = os.open(self.sink_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def dump(self) -> List[list]:
        """This process's spans plus every span pool workers appended."""
        spans = list(self.spans)
        if os.path.exists(self.sink_path):
            with open(self.sink_path) as handle:
                spans.extend(json.loads(line) for line in handle)
        return spans

    def plan_id(self, plan) -> str:
        """The label registered for *plan*, else a per-round run number."""
        name = self.plan_names.get(id(plan))
        if name is None:
            name = self.plan_names[id(plan)] = f"run{next(self._runs)}"
        return name

    def wrap(self, owner, attr: str, name: str,
             attrs: Optional[Callable] = None,
             before: Optional[Callable] = None,
             plan_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``attrs(args, result, before(args))`` gives the span's attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, plan_of(args) if plan_of else None)
            ahead = before(args) if before else None
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(span, attrs(args, result, ahead)
                             if attrs else None)

        # Quantity fingerprints reach the registry's point functions, so
        # a wrapper keys cache entries exactly as the function it wraps.
        wrapper.__cache_fingerprint__ = lambda: _fingerprint(original)
        setattr(owner, attr, wrapper)


def _fingerprint(fn: Callable) -> str:
    from repro.analysis.cache import callable_fingerprint

    return callable_fingerprint(fn)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import multiprocessing.context

    from repro.analysis import cache, objstore, runner, session
    from repro.analysis.campaign import registry, spec
    from repro.analysis.serve import client
    from repro.sensors import charge_to_digital
    from repro.sim import simulator

    tracer.wrap(spec, "compile_campaign", "campaign.compile")
    for name, entry in list(registry.REGISTRY.items()):
        holder = type("Holder", (), {"evaluate": staticmethod(entry.evaluate)})
        tracer.wrap(holder, "evaluate", f"campaign.point.{name}")
        registry.REGISTRY[name] = dataclasses.replace(
            entry, evaluate=holder.evaluate)
    tracer.wrap(session.Session, "submit", "session.submit",
                plan_of=lambda args: tracer.plan_id(args[1]))
    tracer.wrap(runner.Executor, "run", "runner.run",
                attrs=lambda args, result, _: {
                    "executor": result.provenance.executor if result
                    else None, "kind": args[1].kind,
                    "workers": args[0].workers},
                plan_of=lambda args: tracer.plan_id(args[1]))
    # Executor._parallel_rows forks its pool through the fork context.
    tracer.wrap(multiprocessing.context.ForkContext, "Pool",
                "runner.pool_start")
    tracer.wrap(charge_to_digital.ChargeToDigitalConverter, "convert",
                "sensors.convert",
                attrs=lambda args, result, _: {
                    "pulses": result.pulses if result else 0})
    tracer.wrap(simulator.Simulator, "run", "sim.run",
                before=lambda args: args[0].fired_events,
                attrs=lambda args, result, fired: {
                    "events": args[0].fired_events - fired})
    tracer.wrap(cache.ResultCache, "load_result", "cache.get",
                attrs=lambda args, result, _: {"hit": result is not None})
    tracer.wrap(cache.ResultCache, "store_result", "cache.put")
    tracer.wrap(objstore.ObjectStore, "get", "objstore.get",
                attrs=lambda args, result, _: {
                    "bytes": len(result.data) if result else 0})
    for put in ("put_atomic", "put_if_absent", "put_if_match"):
        tracer.wrap(objstore.ObjectStore, put, "objstore.put",
                    attrs=lambda args, result, _: {"bytes": len(args[2])})
    tracer.wrap(client.ServiceClient, "submit", "serve.submit")
    tracer.wrap(client.ServiceClient, "wait", "serve.wait")


def count_model_calls(run: Callable[[], object]) -> Dict[str, int]:
    """Calls into the device models while *run* executes, by kind."""
    from repro.models.gate import GateModel
    from repro.models.mosfet import MosfetModel

    counts = {"on_current": 0, "gate_capacitance": 0}
    on_current = MosfetModel.on_current
    cin = GateModel.input_capacitance
    cpar = GateModel.parasitic_capacitance

    def counted_on_current(self, vgs):
        counts["on_current"] += 1
        return on_current(self, vgs)

    def counted(getter):
        def read(self):
            counts["gate_capacitance"] += 1
            return getter(self)
        return property(read)

    MosfetModel.on_current = counted_on_current
    GateModel.input_capacitance = counted(cin.fget)
    GateModel.parasitic_capacitance = counted(cpar.fget)
    try:
        run()
    finally:
        MosfetModel.on_current = on_current
        GateModel.input_capacitance = cin
        GateModel.parasitic_capacitance = cpar
    return counts
