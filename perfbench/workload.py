"""One measured round of a benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --out DIR
        [--seconds S | --rounds R] [--deadline S] [--trace] [--setup-only]

``run.py`` starts this with ``PYTHONPATH=<checkout>/src`` as the leader
of a new process group, so it can end the round and every pool worker
the round forked in one signal.  The round writes ``DIR/result.json``:
its set-up time, one entry per plan (latency, executor, value digest),
every correctness problem found and, with ``--trace``, the per-layer
figures.  With ``--setup-only`` it sets the workload up, tears it down
and reports only the set-up time.

Workloads (see README.md for why each exists):

* ``campaign_serial`` / ``campaign_pool``: the full ``paper_space``
  campaign through ``run_campaign`` at ``workers=0`` / ``workers=2``;
* ``served_http``: two closed-loop clients against an in-process
  ``ExperimentServer`` whose session caches into an object store.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import faulthandler  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans as tracing  # noqa: E402

WORKLOADS = ("campaign_serial", "campaign_pool", "served_http")
SERVED_PLANS = ("repro.analysis.serve:demo_plan",
                "repro.analysis.serve:steady_plan",
                "repro.analysis.serve:smoke_mc_plan")
CLIENTS = 2


def campaign_seed(seed: int) -> int:
    """The ``paper_space`` campaign seed a benchmark seed stands for."""
    digest = hashlib.sha256(f"paper_space:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest(values) -> str:
    """Content digest of one plan's values (JSON keeps every float bit)."""
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def hermetic_config(**fields):
    """A RunConfig from *fields* alone: no environment, no repro.toml."""
    from repro.analysis.session import RunConfig

    return RunConfig.resolve(environ={}, config_file=False, **fields)


def seeded_campaign(seed: int):
    """``paper_space`` as bundled, with the seed the benchmark chose."""
    from repro.analysis.campaign import builtin_campaign_path, load_campaign

    spec = load_campaign(builtin_campaign_path())
    return dataclasses.replace(spec, seed=campaign_seed(seed))


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has waited for
    (a pool's workers are joined before its plan returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + children.ru_utime
            + children.ru_stime)


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str, seed: int, out: Path) -> dict:
    from repro.analysis.session import Session

    if workload != "served_http":
        from repro.analysis.campaign import compile_campaign

        compiled = compile_campaign(seeded_campaign(seed))
        pool = workload == "campaign_pool"
        # One plan in flight at a time on the pool: with more, plans that
        # lose the pool claim run serially and a fork can inherit a held
        # import lock (FOUND in CHANGES.md).
        session = Session(hermetic_config(workers=2 if pool else 0,
                                          cache_mode="off"),
                          max_inflight=1 if pool else None)
        session.executor  # noqa: B018 - builds the executor now
        return {"compiled": compiled, "session": session}

    from repro.analysis.campaign import builtin_campaign_path
    from repro.analysis.objstore import FakeObjectServer
    from repro.analysis.serve import (ExperimentServer, ExperimentService,
                                      ServiceClient)

    store = FakeObjectServer().start()
    session = Session(hermetic_config(workers=0, cache_mode="rw",
                                      cache_root=f"{store.url}/results"))
    session.executor  # noqa: B018 - connects the result cache
    service = ExperimentService(session=session)
    server = ExperimentServer(service, port=0).start()
    text = builtin_campaign_path().read_text()
    toml = out / "paper_space.toml"
    toml.write_text(re.sub(r"(?m)^seed = \d+$",
                           f"seed = {campaign_seed(seed)}", text, count=1))
    clients = [ServiceClient(server.url) for _ in range(CLIENTS)]
    return {"store": store, "session": session, "service": service,
            "server": server, "clients": clients, "toml": toml}


def teardown(ctx: dict) -> None:
    for client in ctx.get("clients", ()):
        client.close()
    if "server" in ctx:
        ctx["server"].stop()
        ctx["service"].close()
        ctx["store"].stop()
    ctx["session"].close()


# ---------------------------------------------------------------------------
# Campaign rounds


def run_campaign_round(ctx: dict, deadline_s: float, stacks) -> dict:
    """Run the campaign until every plan is done or the deadline passes."""
    from repro.analysis.campaign import REGISTRY, run_campaign
    from repro.models.technology import get_technology

    compiled, session = ctx["compiled"], ctx["session"]
    handles = []
    submit = session.submit

    def recording_submit(*args, **kwargs):
        handle = submit(*args, **kwargs)
        handles.append(handle)
        return handle

    session.submit = recording_submit
    runs = compiled.runs
    done_at = [None] * len(runs)
    faulthandler.dump_traceback_later(deadline_s, file=stacks)
    start = time.perf_counter()
    threading.Thread(target=run_campaign, args=(compiled, session),
                     daemon=True).start()
    while None in done_at and time.perf_counter() - start < deadline_s:
        time.sleep(0.005)
        now = time.perf_counter() - start
        for i, handle in enumerate(list(handles)):
            if done_at[i] is None and handle.done():
                done_at[i] = now
    faulthandler.cancel_dump_traceback_later()
    if None in done_at and os.getpgid(0) == os.getpid():
        os.killpg(0, signal.SIGUSR1)  # every process of the round dumps

    plans, problems = [], []
    unsubmitted = [None] * (len(runs) - len(handles))
    for run, handle, latency in zip(runs, handles + unsubmitted, done_at):
        entry = {"label": run.label, "points": run.plan.point_count,
                 "latency_s": latency, "executor": None, "digest": None}
        plans.append(entry)
        if latency is None:
            continue
        try:
            result = handle.result()
        except Exception as exc:  # a failed plan is counted, not fatal
            entry["latency_s"] = None
            entry["error"] = f"{type(exc).__name__}: {exc}"
            continue
        entry["executor"] = result.provenance.executor
        entry["digest"] = digest(result.values)
        point = compiled.spec.scenarios[run.scenario_index].point
        params = dict(REGISTRY[point].defaults)
        params.update(run.params)
        axis = run.plan.axes[0].values if run.plan.axes else ()
        problems += checks.check_run(point, run.technology, params, axis,
                                     get_technology(run.technology).vdd_min,
                                     result.values)
    finished = [p["latency_s"] for p in plans if p["latency_s"] is not None]
    return {"plans": plans, "problems": problems,
            "wall_s": max(finished) if finished else None}


# ---------------------------------------------------------------------------
# Served rounds


def _client_loop(ctx: dict, index: int, seed: int, start: float,
                 seconds: float, rounds: int, deadline_s: float,
                 samples: list) -> None:
    from repro.analysis.serve import (PlanFailed, ServiceError,
                                      ServiceOverloaded)

    client = ctx["clients"][index]
    tenant = f"tenant{index}"
    rng = random.Random(f"served_http:{seed}:{index}")
    ops = [("plan", spec) for spec in SERVED_PLANS]
    ops.append(("campaign", str(ctx["toml"])))
    done_rounds = 0
    while done_rounds < rounds and time.perf_counter() - start < seconds:
        for kind, spec in rng.sample(ops, len(ops)):
            submitted = time.perf_counter()
            try:
                if kind == "plan":
                    records = [client.submit_plan(spec, tenant=tenant)]
                else:
                    records = client.submit_campaign(spec, tenant=tenant,
                                                     smoke=True)
            except ServiceOverloaded:
                samples.append({"spec": spec, "refused": True,
                                "latency_s": None})
                continue
            for record in records:
                entry = {"spec": spec, "label": record["label"],
                         "points": record["points"], "latency_s": None}
                samples.append(entry)
                try:
                    final = client.wait(record["id"], timeout_s=deadline_s)
                    values = client.result(record["id"])["values"]
                except (PlanFailed, ServiceError) as exc:
                    entry["error"] = str(exc)
                    continue
                entry["latency_s"] = time.perf_counter() - submitted
                entry["done_s"] = time.perf_counter() - start
                entry["digest"] = digest(values)
                entry["server_ms"] = 1e3 * (final["finished_at"]
                                            - final["submitted_at"])
                entry["queue_ms"] = 1e3 * (final["started_at"]
                                           - final["submitted_at"])
                entry["executor"] = final["provenance"]["executor"]
        done_rounds += 1


def run_served(ctx: dict, seed: int, seconds: float, rounds: int,
               deadline_s: float) -> dict:
    samples = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    threads = [threading.Thread(target=_client_loop,
                                args=(ctx, i, seed, start, seconds, rounds,
                                      deadline_s, samples[i]))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    plans = [entry for per_client in samples for entry in per_client]
    finished = [p["done_s"] for p in plans if p["latency_s"] is not None]
    return {"plans": plans, "problems": [],
            "wall_s": max(finished) if finished else None}


def served_problems(ctx: dict, seed: int, plans: list) -> list:
    """Compare every served result with a direct, uncached Session.run."""
    from repro.analysis import serve
    from repro.analysis.campaign import compile_campaign, load_campaign
    from repro.analysis.session import Session

    campaign = load_campaign(ctx["toml"])
    problems = []
    if campaign.seed != campaign_seed(seed):
        problems.append(f"served campaign seed {campaign.seed} is not "
                        f"{campaign_seed(seed)}")
    expected = {}
    with Session(hermetic_config(workers=0, cache_mode="off")) as session:
        for spec in SERVED_PLANS:
            plan, quantities = getattr(serve, spec.split(":")[1])()
            expected[(spec, "")] = digest(session.run(plan,
                                                      quantities).values)
        for run in compile_campaign(campaign.trimmed()).runs:
            expected[(str(ctx["toml"]), run.label)] = digest(
                session.run(run.plan, run.quantities).values)
    for entry in plans:
        if entry.get("digest") is None:
            continue
        key = (entry["spec"], entry["label"])
        if expected.get(key) != entry["digest"]:
            problems.append(f"served {key} differs from Session.run")
    return problems


# ---------------------------------------------------------------------------
# Tracing: the per-layer figures


def _batched_mc_delay(batch):
    from repro.models.batch import gate_delay

    return gate_delay(batch, 0.4)


def batch_probe(seed: int) -> None:
    """A 256-sample batched Monte-Carlo plan: no campaign plan runs the
    batched executor, so ``models.batch_s`` is measured on this one."""
    from repro.analysis.runner import ExperimentPlan, batched
    from repro.analysis.session import Session
    from repro.models.technology import get_technology

    with Session(hermetic_config(workers=0, cache_mode="off")) as session:
        mc = ExperimentPlan.monte_carlo(
            256, technology=get_technology("cmos90"), seed=seed)
        session.run(mc, {"delay": batched(_batched_mc_delay)})


def reference_conversion() -> None:
    """One 1.0 V conversion on cmos90 at the campaign's default sizes."""
    from repro.models.technology import get_technology
    from repro.sensors.charge_to_digital import (ChargeToDigitalConverter,
                                                 conversion_metrics)

    converter = ChargeToDigitalConverter(get_technology("cmos90"),
                                         sampling_capacitance=20e-12,
                                         counter_width=10)
    conversion_metrics(converter, 1.0)


def traced_layers(workload: str, tracer, spans: list, plans: list,
                  seed: int) -> dict:
    """Per-layer figures of the round; 0 for a layer it never calls."""
    import layers

    figures = layers.layer_metrics(spans, plans)
    if workload != "served_http":
        tracer.spans = []
        batch_probe(seed)
        figures["models.batch_s"] = layers.batch_seconds(tracer.spans)
    counts = tracing.count_model_calls(reference_conversion)
    figures["models.on_current_calls_per_conversion"] = counts["on_current"]
    figures["models.gate_capacitance_calls_per_conversion"] = \
        counts["gate_capacitance"]
    return {"figures": figures}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=float("inf"))
    parser.add_argument("--rounds", type=int, default=10 ** 9)
    parser.add_argument("--deadline", type=float, default=60.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(str(args.out / "worker-spans.jsonl"))
        tracing.install(tracer)
    ctx = setup(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - T0
    report = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s}
    if args.setup_only:
        teardown(ctx)
        (args.out / "result.json").write_text(json.dumps(report))
        return 0

    with open(args.out / "stacks.txt", "w") as stacks:
        faulthandler.register(signal.SIGUSR1, file=stacks, all_threads=True)
        cpu_s = -cpu_seconds()
        if args.workload == "served_http":
            report.update(run_served(ctx, args.seed, args.seconds,
                                     args.rounds, args.deadline))
        else:
            if tracer is not None:
                for run in ctx["compiled"].runs:
                    tracer.plan_names[id(run.plan)] = run.label
            report.update(run_campaign_round(ctx, args.deadline, stacks))
        report["cpu_s"] = cpu_s + cpu_seconds()
        hung = any(p["latency_s"] is None and "error" not in p
                   and not p.get("refused") for p in report["plans"])
        if tracer is not None and not hung:
            spans = tracer.dump()
            report.update(traced_layers(args.workload, tracer, spans,
                                        report["plans"], args.seed))
            with open(args.out / "spans.jsonl", "w") as handle:
                handle.writelines(json.dumps(s) + "\n" for s in spans)
        if args.workload == "served_http":
            # After the spans are taken: the references are not workload.
            report["problems"] = served_problems(ctx, args.seed,
                                                 report["plans"])
        (args.out / "result.json").write_text(json.dumps(report))
        if hung:
            os._exit(0)  # hung threads would block interpreter exit
    teardown(ctx)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
