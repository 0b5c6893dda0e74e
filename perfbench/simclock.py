"""Simulated-clock tripwire: the committed per-query simulated times.

``simclock.json`` holds, for each direct workload and each seed in
:data:`SEEDS`, every query's ``ExecutionReport.simulated_time`` as an
exact float hex string.  A run of a direct workload fails when one of its
queries reports two different simulated times, or a time other than the
committed one.  A change of the cost model or of the lowering that moves
the simulated clock on purpose is therefore an explicit edit of
``simclock.json``; rewrite it with::

    python3 perfbench/simclock.py

from the repository root, and name the change where the change is
described.  Seeds outside :data:`SEEDS` are checked within the run only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "simclock.json"

#: Seeds with committed simulated times: 1-32 for measurements, 101-110
#: held out for later claims.
SEEDS = (*range(1, 33), *range(101, 111))

__all__ = ["SEEDS", "PATH", "expected", "tripwire", "record"]


def expected(workload: str, seed: int) -> dict[str, str] | None:
    """Committed ``{"qN": hex}`` of a workload and seed, or None if absent."""
    return json.loads(PATH.read_text()).get(workload, {}).get(str(seed))


def tripwire(sim_seen: dict[int, set[str]], committed: dict[str, str] | None) -> list[str]:
    """Problems with the simulated times a run observed (empty when none).

    ``sim_seen`` maps each query to the set of simulated times (hex) its
    executions reported.  Each query must report exactly one, and with
    ``committed`` given it must be the committed one.
    """
    problems = [
        f"Q{q}: {len(seen)} different simulated times in one run"
        for q, seen in sorted(sim_seen.items()) if len(seen) != 1
    ]
    if problems or committed is None:
        return problems
    return [
        f"Q{q}: simulated time {got} differs from the committed {committed.get(f'q{q}')}"
        for q, (got,) in sorted(sim_seen.items()) if committed.get(f"q{q}") != got
    ]


def record() -> dict:
    """Run every query of every direct workload once per seed."""
    from workloads import WORKLOADS, Bench

    table: dict = {}
    for workload in WORKLOADS.values():
        if workload.serving:
            continue
        for seed in SEEDS:
            bench = Bench(workload, seed)
            try:
                bench.setup()
            finally:
                bench.teardown()
            if bench.warmup_failures:
                raise SystemExit(
                    f"{workload.name} seed {seed}: Q{bench.warmup_failures} "
                    "differ from the reference interpreter"
                )
            problems = tripwire(bench.sim_seen, None)
            if problems:
                raise SystemExit(f"{workload.name} seed {seed}: {problems}")
            table.setdefault(workload.name, {})[str(seed)] = {
                f"q{q}": got for q, (got,) in sorted(bench.sim_seen.items())
            }
            print(f"{workload.name} seed {seed}: {table[workload.name][str(seed)]}",
                  flush=True)
    return table


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
