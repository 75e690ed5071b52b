"""Recompute the serial value digest of the seeded ``paper_space`` campaign.

    PYTHONPATH=src python3 perfbench/serial_digest.py --seed N

Evaluates every planned run on a ``Session(workers=0, cache_mode="off")``
and prints one JSON object mapping each run label to the digest of its
values; ``campaign_pool`` must match it byte for byte.  Digests are kept
in ``.perfbench/serial-digests.json`` under each plan's content key,
which hashes the plan, its quantities and every source file of
``repro``, so an edit to the program evaluates every plan again and a
new seed only the seeded Monte-Carlo plans.  Evaluating all 77 plans
takes about as long as a serial campaign round (15-20 s), which every
``campaign_pool`` run would otherwise pay on top of its own.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from workload import digest, hermetic_config, seeded_campaign

STORE = Path(__file__).resolve().parent.parent / ".perfbench" \
    / "serial-digests.json"


def serial_digests(seed: int) -> dict:
    from repro.analysis.cache import result_key
    from repro.analysis.campaign import compile_campaign
    from repro.analysis.session import Session

    known = json.loads(STORE.read_text()) if STORE.exists() else {}
    labels = {}
    with Session(hermetic_config(workers=0, cache_mode="off")) as session:
        for run in compile_campaign(seeded_campaign(seed)).runs:
            key = result_key(run.plan, run.quantities)
            if key not in known:
                known[key] = digest(session.run(run.plan,
                                                run.quantities).values)
            labels[run.label] = known[key]
    STORE.parent.mkdir(parents=True, exist_ok=True)
    partial = STORE.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(known, sort_keys=True))
    partial.replace(STORE)
    return labels


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(serial_digests(args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
