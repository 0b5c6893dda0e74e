"""Differential oracle: the SQL lowering against the reference interpreter.

Hypothesis generates logical plans over a small synthetic catalog — side
filters (comparisons, IN-lists, ranges), zero to three left-deep joins on
one shared key (the cascade plan) or on different keys (the multistage
plan), semi/anti first joins, residual filters over the joined result,
grouped or scalar aggregates, and ORDER BY/LIMIT — and checks that
:func:`~repro.relational.lower_to_modularis` computes exactly what
:func:`~repro.relational.run_logical_plan` computes, across join
strategies, execution modes, join kernels and 1–8 ranks.  Integers must
match exactly and floats to 1e-9 (``fig9.frames_match``); ordered results
must also agree on the order of their sort keys.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments.fig9 import frames_match
from repro.core.options import RunOptions
from repro.errors import PlanError
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col, lit
from repro.relational.logical import JOIN_KINDS
from repro.storage import Catalog, Table

TABLES = ("r0", "r1", "r2", "r3")
KEYS = ("ka", "kb")
PAYLOADS = ("g", "n", "x")  # small int, int, float


@functools.lru_cache(maxsize=None)
def _catalog() -> Catalog:
    catalog = Catalog()
    rng = np.random.default_rng(2021)
    for name in TABLES:
        rows = 80
        catalog.register(Table.from_arrays(
            name,
            ka=rng.integers(0, 24, rows).astype(np.int64),
            kb=rng.integers(0, 16, rows).astype(np.int64),
            g=rng.integers(0, 4, rows).astype(np.int64),
            n=rng.integers(0, 50, rows).astype(np.int64),
            x=np.round(rng.uniform(0.0, 10.0, rows), 3),
        ))
    return catalog


def _side_filter(draw):
    column = draw(st.sampled_from(("ka", "kb", "g", "n", "x")))
    form = draw(st.sampled_from(("lt", "ge", "isin", "between")))
    if column == "x":
        bound = draw(st.floats(0.0, 10.0, allow_nan=False).map(lambda v: round(v, 2)))
        return col("x") < bound if form in ("lt", "isin") else col("x") >= bound
    bound = draw(st.integers(0, 30))
    if form == "lt":
        return col(column) < bound
    if form == "ge":
        return col(column) >= bound
    if form == "isin":
        return col(column).isin(draw(st.lists(st.integers(0, 30), min_size=1, max_size=5)))
    return col(column).between(bound, bound + draw(st.integers(0, 20)))


@st.composite
def logical_plans(draw):
    """A plan of the shape the lowering supports, plus its sort keys."""
    n_joins = draw(st.integers(0, 3))
    keys = [draw(st.sampled_from(KEYS)) for _ in range(n_joins)]
    kinds = [draw(st.sampled_from(JOIN_KINDS))] + ["inner"] * (n_joins - 1)
    # Semi/anti keep only the right side's rows, so the later join keys
    # must ride on that side; an inner first join keeps the left side.
    carrier = 1 if n_joins and kinds[0] != "inner" else 0
    tables = draw(st.permutations(TABLES))
    sides, columns = [], {}
    for i in range(n_joins + 1):
        own = {keys[max(i - 1, 0)]} if n_joins else set()
        if i == carrier:
            own |= set(keys[1:])
        outputs = {k: col(k) for k in sorted(own)}
        payloads = st.sets(st.sampled_from(PAYLOADS), min_size=0 if own else 1)
        for payload in draw(payloads):
            outputs[f"{payload}{i}"] = col(payload)
        query = scan(tables[i])
        if draw(st.booleans()):
            query = query.filter(_side_filter(draw))
        sides.append(query.project(outputs))
        columns[i] = list(outputs)
    query = sides[0]
    visible = set(columns[0])
    for i in range(1, n_joins + 1):
        query = query.join(sides[i], on=keys[i - 1], kind=kinds[i - 1])
        visible = set(columns[i]) | (visible if kinds[i - 1] == "inner" else set())
    visible = sorted(visible)
    ints = [c for c in visible if not c.startswith("x")]
    # A residual filter reads a payload of the last joined side, so
    # pushdown cannot sink it between two joins of a chain (a shape the
    # lowering rejects with PlanError).
    last = [c for c in columns[n_joins] if c[0] in "gn"]
    if last and draw(st.booleans()):
        a, b = draw(st.sampled_from(last)), draw(st.sampled_from(ints))
        query = query.filter(col(a) <= col(b) + draw(st.integers(0, 20)))
    group_by = draw(st.lists(st.sampled_from(ints), max_size=2, unique=True)) if ints else []
    aggs = [("count", lit(1), "cnt")]
    for j, column in enumerate(draw(st.lists(st.sampled_from(visible), max_size=2))):
        func = draw(st.sampled_from(("sum", "min", "max")))
        aggs.append((func, col(column) * 2 if func == "sum" else col(column), f"a{j}"))
    query = query.aggregate(group_by=group_by, aggs=aggs)
    order_by: list[str] = []
    if group_by and draw(st.booleans()):
        # Sorting on every group key is a total order, so LIMIT is exact.
        order_by = group_by
        descending = draw(st.lists(st.booleans(), min_size=len(order_by), max_size=len(order_by)))
        query = query.order_by(*order_by, descending=descending)
        if draw(st.booleans()):
            query = query.limit(draw(st.integers(1, 5)))
    return query.plan, n_joins, order_by


@settings(max_examples=80, deadline=None)
@given(
    case=logical_plans(),
    strategy=st.sampled_from(("exchange", "broadcast", "auto")),
    mode=st.sampled_from(("fused", "interpreted")),
    join_kernel=st.sampled_from(("auto", "sorted", "radix")),
    ranks=st.integers(1, 8),
)
def test_lowering_matches_reference(case, strategy, mode, join_kernel, ranks):
    plan, n_joins, order_by = case
    catalog = _catalog()
    if strategy == "broadcast" and n_joins >= 2:
        with pytest.raises(PlanError, match="multi-join"):
            lower_to_modularis(plan, catalog, SimCluster(ranks), join_strategy=strategy)
        return
    lowered = lower_to_modularis(plan, catalog, SimCluster(ranks), join_strategy=strategy)
    report = lowered.run(catalog, RunOptions(mode=mode, join_kernel=join_kernel))
    actual = lowered.result_frame(report)
    expected = run_logical_plan(plan, catalog)
    assert frames_match(expected, actual), (lowered.strategy, expected, actual)
    for key in order_by:
        assert actual.columns[key].tolist() == expected.columns[key].tolist()
