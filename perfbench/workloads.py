"""The four benchmark workloads and the closed-loop load generator.

Every workload is one client thread in one process, in a closed loop: the
next query is sent only when an outstanding slot frees up.  Queries are
issued in a seeded, shuffled round-robin (each cycle is a fresh
permutation of the workload's queries), so every query runs about equally
often whatever the window length.  The seed also drives the TPC-H data
(``load_catalog(seed=...)``) and, for serving, the tenant of each
submission.  README.md says why each workload exists.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Workload", "WORKLOADS", "Sample", "Window", "Bench", "query_cycles"]

#: Wall seconds a serving client waits for one result before counting the
#: query as failed; far above any healthy query's latency.
RESULT_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    scale_factor: float
    ranks: int
    queries: tuple[int, ...]
    join_strategy: str = "exchange"
    serving: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tpch_exchange", 0.05, 4, (4, 12, 14, 19), "exchange"),
        Workload("tpch_broadcast", 0.05, 4, (4, 12, 14, 19), "broadcast"),
        Workload("serving_mix", 0.01, 2, (4, 12, 14, 19), serving=True),
        Workload("tpch_extension", 0.0025, 4, (1, 3, 6), "exchange"),
    )
}


@dataclass
class Sample:
    """One query of a timed window: ``latency`` in wall seconds."""

    query: int
    latency: float
    report: Any = None
    frame: Any = None
    error: str | None = None


@dataclass
class Window:
    """One timed window: samples plus its wall and process-CPU seconds."""

    samples: list[Sample]
    wall: float
    cpu: float

    @property
    def completed(self) -> list[Sample]:
        return [s for s in self.samples if s.error is None]

    @classmethod
    def merged(cls, windows: list["Window"]) -> "Window":
        return cls(
            [s for w in windows for s in w.samples],
            sum(w.wall for w in windows),
            sum(w.cpu for w in windows),
        )


def query_cycles(queries: tuple, seed: int, stream: str = "queries") -> Iterator[list]:
    """Endless seeded round-robin: each cycle is a fresh permutation."""
    rng = random.Random(f"{seed}:{stream}")
    while True:
        cycle = list(queries)
        rng.shuffle(cycle)
        yield cycle


def until(deadline: float, cycles: Iterator[list]) -> Iterator:
    """Items cycle by cycle; no new cycle starts after ``deadline``.

    Whole cycles keep every query equally often in a window, so the mix
    behind a percentile or a throughput does not depend on where the
    window happened to end.
    """
    while time.perf_counter() < deadline:
        yield from next(cycles)


@dataclass
class Bench:
    """Set-up, oracle and timed windows of one workload in this process."""

    workload: Workload
    seed: int
    #: Reference-interpreter frame per query (computed once, untimed).
    oracle: dict = field(default_factory=dict)
    #: Every simulated time observed per query, as exact hex strings.
    sim_seen: dict = field(default_factory=dict)
    #: Results of set-up warm-up passes that did not match the oracle.
    warmup_failures: list = field(default_factory=list)
    catalog: Any = None
    cluster: Any = None
    server: Any = None
    handles: dict = field(default_factory=dict)
    queries: dict = field(init=False)
    plans: dict = field(init=False)
    #: Endless seeded tenant stream for serving submissions.
    tenants: Iterator[str] = field(init=False)
    #: Queries sent by timed windows so far.
    sent: int = 0

    def __post_init__(self) -> None:
        from repro.serving.soak import DEFAULT_TENANTS
        from repro.tpch.queries import ALL_QUERIES, EXTENSION_QUERIES

        builders = {**ALL_QUERIES, **EXTENSION_QUERIES}
        self.queries = {q: builders[q]() for q in self.workload.queries}
        self.plans = {q: query.plan for q, query in self.queries.items()}
        self.tenant_weights = dict(DEFAULT_TENANTS)
        self.tenants = itertools.chain.from_iterable(
            query_cycles(tuple(self.tenant_weights), self.seed, "tenants")
        )

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Build everything the timed window needs; returns its wall seconds.

        Covers data generation, cluster (and server + deploys) and one
        warm-up pass over every query.  The oracle is computed on the
        first set-up only and its time is excluded.
        """
        from repro.mpi.cluster import SimCluster
        from repro.relational.interpreter import run_logical_plan
        from repro.tpch.dbgen import load_catalog

        self.teardown()
        w = self.workload
        t0 = time.perf_counter()
        self.catalog = load_catalog(w.scale_factor, seed=self.seed)
        self.cluster = SimCluster(w.ranks)
        if w.serving:
            self._start_server()
        t1 = time.perf_counter()
        if not self.oracle:
            for q in w.queries:
                self.oracle[q] = run_logical_plan(self.plans[q], self.catalog)
        t2 = time.perf_counter()
        for q in w.queries:
            if w.serving:
                outcome = self.server.run(
                    self.handles[q], tenant=next(self.tenants), timeout=RESULT_TIMEOUT_S
                )
                report, frame = outcome.report, outcome.frame
            else:
                report, frame = self.run_direct(q)
            self.note_sim(q, report)
            if not self.matches(q, frame):
                self.warmup_failures.append(q)
        t3 = time.perf_counter()
        return (t1 - t0) + (t3 - t2)

    def _start_server(self) -> None:
        from repro.serving import Server

        self.server = Server(self.cluster, self.catalog, n_workers=self.depth)
        for tenant, weight in self.tenant_weights.items():
            self.server.register_tenant(tenant, weight)
        for q in self.workload.queries:
            self.handles[q] = self.server.deploy(
                f"q{q}", self.queries[q], join_strategy=self.workload.join_strategy
            ).handle

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
        self.server = self.catalog = self.cluster = None
        self.handles = {}
        gc.collect()

    @property
    def depth(self) -> int:
        """Outstanding submissions (and server workers): never above nproc."""
        return min(2, os.cpu_count() or 1) if self.workload.serving else 1

    # -- one query ------------------------------------------------------------

    def run_direct(self, q: int):
        """Lower, run and collect one query (the timed unit of direct loops)."""
        from repro.relational.optimizer import planner

        lowered = planner.lower_to_modularis(
            self.plans[q], self.catalog, self.cluster,
            join_strategy=self.workload.join_strategy,
        )
        report = lowered.run(self.catalog)
        return report, lowered.result_frame(report)

    def matches(self, q: int, frame) -> bool:
        from repro.bench.experiments.fig9 import frames_match

        return frames_match(self.oracle[q], frame)

    def note_sim(self, q: int, report) -> None:
        self.sim_seen.setdefault(q, set()).add(float(report.simulated_time).hex())

    # -- timed windows --------------------------------------------------------

    def window(
        self, seconds: float, cycles: Iterator[list], tag: Callable | None = None
    ) -> Window:
        """Run the closed loop for ``seconds`` wall seconds.

        The cycle under way when the window closes is finished (see
        :func:`until`); queries outstanding then are waited for and counted.
        ``tag``, when given, is called with each query's sequence number
        in this process before it is sent (the tracer's query id).
        """
        if self.workload.serving:
            return self._serving_window(seconds, cycles, tag)
        samples = []
        start = time.perf_counter()
        cpu0 = time.process_time()
        end = start
        for q in until(start + seconds, cycles):
            self.sent += 1
            if tag is not None:
                tag(self.sent)
            t0 = time.perf_counter()
            try:
                report, frame = self.run_direct(q)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                end = time.perf_counter()
                samples.append(Sample(q, end - t0, error=f"{type(exc).__name__}: {exc}"))
                continue
            end = time.perf_counter()
            samples.append(Sample(q, end - t0, report, frame))
        return Window(samples, end - start, time.process_time() - cpu0)

    def _serving_window(
        self, seconds: float, cycles: Iterator[list], tag: Callable | None
    ) -> Window:
        samples = []
        pending: deque = deque()
        start = time.perf_counter()
        cpu0 = time.process_time()
        end = start
        queries = until(start + seconds, cycles)
        while True:
            while len(pending) < self.depth:
                q = next(queries, None)
                if q is None:
                    break
                self.sent += 1
                if tag is not None:
                    tag(self.sent)
                t0 = time.perf_counter()
                try:
                    future = self.server.submit(self.handles[q], tenant=next(self.tenants))
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    samples.append(Sample(q, time.perf_counter() - t0,
                                          error=f"{type(exc).__name__}: {exc}"))
                    continue
                pending.append((q, t0, future))
            if not pending:
                break
            # Results are read in submission order (a depth-``depth``
            # pipeline); a query's latency ends when its result() returns.
            q, t0, future = pending.popleft()
            try:
                outcome = future.result(timeout=RESULT_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                end = time.perf_counter()
                samples.append(Sample(q, end - t0, error=f"{type(exc).__name__}: {exc}"))
                continue
            end = time.perf_counter()
            samples.append(Sample(q, end - t0, outcome.report, outcome.frame))
        return Window(samples, end - start, time.process_time() - cpu0)

    def check(self, window: Window) -> None:
        """Compare every completed result with the oracle.

        A mismatch turns the sample into an error.  Also records each
        result's simulated time for the tripwire.  Runs after the window,
        so checking costs no measured time.
        """
        for s in window.completed:
            self.note_sim(s.query, s.report)
            if not self.matches(s.query, s.frame):
                s.error = "result differs from the reference interpreter"
            s.frame = None
