"""Exact pins of every shipped plan: simulated time and output rows.

Each case builds one plan — the four hand-built plans of
:mod:`repro.core.plans` across their options, and the TPC-H queries lowered
by :func:`repro.relational.lower_to_modularis` across join strategies —
runs it in both execution modes on 4 ranks, and compares two facts against
``plan_pins.json``:

* ``simulated_time.hex()`` — the cost model's clock, exactly;
* a SHA-256 digest of the output rows (field names, dtypes and column
  bytes, in emission order), so rows must stay bit-identical.

Any refactor of the plan code must leave every pin untouched.  A change
that moves a pin on purpose (a cost-model recalibration, a new plan shape)
re-records the file with::

    PYTHONPATH=src python tests/test_plan_pins.py --record
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.operators.build_probe import JOIN_TYPES
from repro.core.options import RunOptions
from repro.core.plans import (
    build_broadcast_join,
    build_distributed_groupby,
    build_distributed_join,
    build_join_sequence,
)
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.storage import Catalog, Table
from repro.tpch import ALL_QUERIES, EXTENSION_QUERIES, load_catalog
from repro.types import INT64, RowVector, TupleType
from repro.workloads.join_data import make_cascade_relations

PINS_PATH = pathlib.Path(__file__).with_name("plan_pins.json")
MODES = ("fused", "interpreted")
RANKS = 4
SCALE_FACTOR = 0.005
KEY_BITS = 12

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)


def _digest(columns: list[tuple[str, np.ndarray]]) -> str:
    h = hashlib.sha256()
    for name, values in columns:
        values = np.ascontiguousarray(values)
        h.update(f"{name}:{values.dtype.str}:{len(values)};".encode())
        h.update(values.tobytes())
    return h.hexdigest()


def _vector_digest(vector: RowVector) -> str:
    names = vector.element_type.field_names
    return _digest([(name, vector.column(name)) for name in names])


@functools.lru_cache(maxsize=None)
def _join_inputs() -> tuple[RowVector, RowVector]:
    # Unmatched keys on both sides and duplicates on the probe side, so
    # semi, anti and left-outer each produce a distinct output.
    rng = np.random.default_rng(12)
    lk = rng.permutation(1500).astype(np.int64)
    rk = rng.integers(500, 2500, size=2000).astype(np.int64)
    left = RowVector(L, [lk, rng.integers(0, 1 << KEY_BITS, 1500).astype(np.int64)])
    right = RowVector(R, [rk, rng.integers(0, 1 << KEY_BITS, 2000).astype(np.int64)])
    return left, right


@functools.lru_cache(maxsize=None)
def _groupby_input() -> RowVector:
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 700, size=3000).astype(np.int64)
    # Small values keep host/NIC pre-aggregated sums inside the dense
    # domain that radix compression packs.
    values = rng.integers(0, 64, size=3000).astype(np.int64)
    return RowVector(KV, [keys, values])


@functools.lru_cache(maxsize=None)
def _tpch_catalog() -> Catalog:
    return load_catalog(SCALE_FACTOR, seed=2021)


@functools.lru_cache(maxsize=None)
def _chain_catalog() -> Catalog:
    catalog = Catalog()
    rng = np.random.default_rng(5)
    for name, pay in (("ra", "pa"), ("rb", "pb"), ("rc", "pc")):
        keys = rng.integers(0, 800, size=600).astype(np.int64)
        catalog.register(Table.from_arrays(name, k=keys, **{pay: keys % 97}))
    return catalog


def _chain_query():
    return (
        scan("ra").filter(col("pa") < 80)
        .join(scan("rb"), on="k")
        .join(scan("rc"), on="k")
        .aggregate(
            group_by=["pc"], aggs=[("sum", col("pa") + col("pb"), "t")]
        )
    )


def _run_join(mode: str, join_type: str, compression: bool, algorithm: str = "hash"):
    left, right = _join_inputs()
    plan = build_distributed_join(
        SimCluster(RANKS), L, R, key_bits=KEY_BITS, compression=compression,
        join_type=join_type, algorithm=algorithm,
    )
    report = plan.run(left, right, RunOptions(mode=mode))
    return report.simulated_time, _vector_digest(plan.matches(report))


def _run_groupby(mode: str, compression: bool, offload: str | None):
    plan = build_distributed_groupby(
        SimCluster(RANKS), KV, key_bits=KEY_BITS, compression=compression,
        offload=offload,
    )
    report = plan.run(_groupby_input(), RunOptions(mode=mode))
    return report.simulated_time, _vector_digest(plan.groups(report))


def _run_sequence(mode: str, variant: str, n_relations: int):
    relations, _ = make_cascade_relations(n_relations, 512, match_multiplier=2)
    plan = build_join_sequence(
        SimCluster(RANKS), [r.element_type for r in relations], variant=variant
    )
    report = plan.run(relations, RunOptions(mode=mode))
    return report.simulated_time, _vector_digest(plan.matches(report))


def _run_broadcast(mode: str, join_type: str):
    left, right = _join_inputs()
    plan = build_broadcast_join(SimCluster(RANKS), L, R, join_type=join_type)
    report = plan.run(left, right, RunOptions(mode=mode))
    return report.simulated_time, _vector_digest(plan.matches(report))


def _run_lowered(mode: str, plan, catalog: Catalog, strategy: str):
    lowered = lower_to_modularis(
        plan, catalog, SimCluster(RANKS), join_strategy=strategy
    )
    report = lowered.run(catalog, RunOptions(mode=mode))
    frame = lowered.result_frame(report)
    return report.simulated_time, _digest(list(frame.columns.items()))


def _cases() -> dict[str, functools.partial]:
    cases = {}
    queries = {**ALL_QUERIES, **EXTENSION_QUERIES}
    for mode in MODES:
        for join_type in JOIN_TYPES:
            for compression in (True, False):
                cases[f"join-{join_type}-comp{int(compression)}-{mode}"] = (
                    functools.partial(_run_join, mode, join_type, compression)
                )
            cases[f"broadcast-{join_type}-{mode}"] = functools.partial(
                _run_broadcast, mode, join_type
            )
        cases[f"join-sortmerge-{mode}"] = functools.partial(
            _run_join, mode, "inner", True, "sortmerge"
        )
        for compression in (True, False):
            for offload in (None, "host", "nic"):
                cases[f"groupby-comp{int(compression)}-{offload}-{mode}"] = (
                    functools.partial(_run_groupby, mode, compression, offload)
                )
        for variant in ("naive", "optimized"):
            for n_relations in (3, 4):
                cases[f"sequence-{variant}-{n_relations}-{mode}"] = (
                    functools.partial(_run_sequence, mode, variant, n_relations)
                )
        for number in sorted(queries):
            # Multi-join chains have no broadcast plan (the lowering
            # refuses them), so Q3 pins exchange and auto only.
            strategies = ("exchange", "auto") if number == 3 else (
                "exchange", "broadcast", "auto"
            )
            for strategy in strategies:
                cases[f"tpch-q{number}-{strategy}-{mode}"] = functools.partial(
                    lambda m, n, s: _run_lowered(
                        m, queries[n]().plan, _tpch_catalog(), s
                    ),
                    mode, number, strategy,
                )
        cases[f"chain-cascade-{mode}"] = functools.partial(
            lambda m: _run_lowered(m, _chain_query().plan, _chain_catalog(), "auto"),
            mode,
        )
    return cases


CASES = _cases()


def _measure(case_id: str) -> dict[str, str]:
    simulated, digest = CASES[case_id]()
    return {"simulated_time": float(simulated).hex(), "rows": digest}


@functools.lru_cache(maxsize=None)
def _pins() -> dict[str, dict[str, str]]:
    return json.loads(PINS_PATH.read_text())


def test_every_case_is_pinned():
    assert sorted(_pins()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_plan_matches_pin(case_id):
    assert _measure(case_id) == _pins()[case_id]


def record() -> None:
    pins = {case_id: _measure(case_id) for case_id in sorted(CASES)}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pins)} pins to {PINS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_plan_pins.py --record")
    record()
