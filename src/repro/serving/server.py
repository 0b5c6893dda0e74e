"""The serving front door: sessions, admission control, tenant accounting.

The :class:`Server` is the driver half of the driver/executor split.  It
owns one shared :class:`~repro.mpi.cluster.SimCluster` (the executor
substrate), one :class:`~repro.serving.registry.PlanRegistry` of deployed
plans, one :class:`~repro.serving.scheduler.WorkStealingScheduler`, and
one :class:`~repro.observability.metrics.MetricsRegistry` the scheduler
and the settlement fold both feed — so a single ``server.snapshot()``
answers "who ran what, how much, and how fairly".

A query is a *lifecycle*, not a call::

    submitted ──► running ──► completed
        │            ├──────► cancelled          (cooperative cancel)
        │            ├──────► deadline-exceeded  (simulated-clock budget)
        │            ├──────► retried ──► running…   (retryable fault)
        │            └──────► failed             (terminal; feeds breaker)
        ├──────► shed        (load-aware admission, per-tenant)
        └──────► rejected    (hard max_pending cap / open breaker)

One :class:`~repro.observability.tracing.QueryJournal` per submission is
the record: each lifecycle step appends a journal entry and, in the same
locked step (:meth:`Server._file`), folds it into everything derived from
it — the tenant ledger, the server-side ``serving_*`` metrics and the
registry's ``HandleStats``; :attr:`Server.lifecycle_events` is computed
from the journals on read.  The scheduler's own counters are the
independent record the soak checks the fold against.

Admission gates, in order: the per-plan circuit breaker, the hard
``max_pending`` bound, and load-aware shedding (see :meth:`Server.submit`).
Every lifecycle decision is driven by counts and the query's *simulated*
clock, never wall time, so the outcomes for a given seed and submission
sequence are deterministic (``tests/test_serving_replay.py``).

The client surface is :class:`QuerySession` — ``session → deploy → run``:

    server = Server(cluster, catalog, max_pending=32)
    session = server.session("analytics", weight=2.0)
    handle = session.deploy("q12", q12())          # verify + freeze once
    outcome = session.run(handle)                  # hot path, many times
    frame = outcome.frame
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadShedError,
    QueryCancelled,
    ResultTimeout,
    RetriesExhausted,
)
from repro.faults.policy import RetryPolicy, is_retryable
from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import SERVING_LATENCY_BOUNDS, SLOConfig
from repro.observability.tracing import (
    QueryJournal,
    TraceContext,
    lifecycle_event,
    stamp_report,
)
from repro.serving.lifecycle import BREAKER_STATE_CODES, BreakerConfig
from repro.serving.registry import PlanRegistry, PreparedPlan
from repro.serving.scheduler import QueryTask, WorkStealingScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import ExecutionReport
    from repro.mpi.cluster import SimCluster
    from repro.mpi.trace import TraceEvent
    from repro.relational.frame import Frame
    from repro.serving.lifecycle import CircuitBreaker
    from repro.storage.catalog import Catalog

__all__ = ["QueryOutcome", "QueryFuture", "TenantAccount", "QuerySession", "Server"]

#: Journal terminal state -> the tenant-ledger bucket it settles into.
LEDGER_BUCKETS = {
    "completed": "queries",
    "cancelled": "cancelled",
    "deadline_missed": "deadline_missed",
    "failed": "failed",
    "shed": "shed",
    "rejected": "rejected",
}


@dataclass(frozen=True)
class QueryOutcome:
    """Everything a completed query produced."""

    query_id: int
    tenant: str
    handle: str
    report: "ExecutionReport"
    frame: "Frame"
    #: Driver morsel steps this query consumed (the fair-share currency),
    #: cumulative across server-level retry attempts.
    steps: int
    #: Global step-sequence span ``[first_seq, last_seq]`` — two outcomes
    #: with overlapping spans provably interleaved on the scheduler.
    first_seq: int
    last_seq: int
    #: The query's audit journal (submit → admit → attempt(s) → settle)
    #: with causal span links.
    journal: QueryJournal
    #: Server-level attempts this query took (1 = no retries needed).
    attempts: int = 1


class QueryFuture:
    """Handle to an in-flight query; ``result()`` blocks for the outcome."""

    def __init__(
        self, query_id: int, tenant: str, handle: str, server: "Server | None" = None
    ) -> None:
        self.query_id = query_id
        self.tenant = tenant
        self.handle = handle
        self._server = server
        #: Shared with every scheduler attempt of this query, so a cancel
        #: lands no matter which retry attempt is currently running.
        self._cancel = threading.Event()
        self._event = threading.Event()
        self._outcome: QueryOutcome | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> bool:
        """Request cooperative cancellation, observed by the scheduler
        between morsel steps; the query settles as ``cancelled`` and
        ``result()`` raises :class:`~repro.errors.QueryCancelled`.  Returns
        ``False`` if the query already settled (its outcome stands)."""
        if self.done():
            return False
        self._cancel.set()
        if self._server is not None:
            self._server.scheduler.kick()
        return True

    def cancelled(self) -> bool:
        """Whether cancellation has been requested (not yet necessarily
        settled — poll :meth:`done` or block on :meth:`result`)."""
        return self._cancel.is_set()

    def result(self, timeout: float | None = None) -> QueryOutcome:
        """Block for the outcome; a settled failure re-raises its typed
        error (``QueryCancelled``, ``DeadlineExceeded``, ``RetriesExhausted``…).

        ``timeout`` is a *wall-clock* bound on this wait, unrelated to the
        query's simulated-clock ``deadline``; expiring raises
        :class:`~repro.errors.ResultTimeout` and leaves the query running.
        """
        if not self._event.wait(timeout):
            raise ResultTimeout(
                f"query {self.query_id} ({self.handle}) still running after "
                f"a {timeout}s wall-clock wait; the query itself is "
                f"unaffected (cancel() to stop it)",
                query_id=self.query_id, tenant=self.tenant, handle=self.handle,
            )
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    def _resolve(
        self, outcome: QueryOutcome | None, error: BaseException | None
    ) -> None:
        self._outcome = outcome
        self._error = error
        self._event.set()


@dataclass(frozen=True)
class TenantAccount:
    """Read-only snapshot of one tenant's ledger, a fold over its journals.

    Conservation invariant (asserted by the soak reconciliation test)::

        submitted == queries + cancelled + deadline_missed + failed
                     + shed + rejected            (once in_flight == 0)

    ``steps`` counts every morsel the tenant's queries consumed,
    *including* attempts that were later cancelled, deadline-missed,
    failed, or retried; ``simulated_seconds`` counts completed queries
    only (it is the currency compared against serial baselines).
    """

    name: str
    weight: float = 1.0
    #: Queries that completed successfully.
    queries: int = 0
    steps: int = 0
    simulated_seconds: float = 0.0
    #: Hard admission failures: max_pending cap, open-breaker fast-fails,
    #: and submissions whose plan failed to instantiate.
    rejected: int = 0
    #: Every submit() attempt, whatever its fate.
    submitted: int = 0
    cancelled: int = 0
    deadline_missed: int = 0
    failed: int = 0
    #: Load-shed submissions (never reached the scheduler).
    shed: int = 0
    #: Server-level re-submissions after retryable faults.
    retries: int = 0
    #: Queries admitted and not yet settled.
    in_flight: int = 0

    def settled_total(self) -> int:
        """Outcomes filed so far (every submission's final fate)."""
        return sum(getattr(self, bucket) for bucket in LEDGER_BUCKETS.values())


class _Query(NamedTuple):
    """What every attempt of one admitted query shares."""

    prepared: PreparedPlan
    breaker: "CircuitBreaker"
    future: QueryFuture
    journal: QueryJournal
    options: RunOptions
    deadline: float | None


class Server:
    """Concurrent multi-query serving over one shared cluster."""

    def __init__(
        self, cluster: "SimCluster", catalog: "Catalog", n_workers: int = 4,
        quantum: int = 1, max_pending: int = 64,
        metrics: MetricsRegistry | None = None, retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None, shed_threshold: float = 1.0,
        start: bool = True, slo: SLOConfig | None = None,
    ) -> None:
        """Args beyond the obvious:

        Args:
            retry: Server-level retry budget for *retryable* faults
                (:func:`repro.faults.policy.is_retryable`); backoff is
                charged to the query's simulated clock, so a ``deadline``
                spans retries.  ``None`` (default) disables server retries.
            breaker: Per-prepared-plan circuit-breaker knobs (``None``:
                :class:`~repro.serving.lifecycle.BreakerConfig` defaults).
                Breakers are always armed; a healthy plan never trips one.
            shed_threshold: Fraction of ``max_pending`` at which load-aware
                shedding starts.  The default ``1.0`` disables shedding
                (the hard cap fires first); hardened deployments pass 0.75.
            start: Start the scheduler pool now.  Pass ``False`` and call
                :meth:`start` later to make submission-time decisions
                independent of execution timing (the soak replays this way).
            slo: Latency objectives.  When set, completed queries slower
                than their tenant's target — and every failed or
                deadline-missed query — burn the error budget
                (``serving_slo_miss``).  Latency histograms record either way.
        """
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if not 0.0 < shed_threshold <= 1.0:
            raise ValueError(f"shed_threshold must be in (0, 1], got {shed_threshold}")
        self.cluster = cluster
        self.catalog = catalog
        self.max_pending = max_pending
        self.shed_threshold = shed_threshold
        self.retry = retry
        self.slo = slo
        self.breaker_config = breaker if breaker is not None else BreakerConfig()
        self.registry = PlanRegistry()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scheduler = WorkStealingScheduler(
            n_workers=n_workers, quantum=quantum, metrics=self.metrics
        )
        #: The settlement lock: guards the journals, everything folded from
        #: them, and admission.  Never held while calling into a breaker
        #: (breakers call back into :meth:`_on_breaker_transition`).
        self._lock = threading.RLock()
        #: tenant -> ledger counters (the fields of :class:`TenantAccount`).
        self._ledgers: dict[str, dict[str, float]] = {}
        self._query_ids = itertools.count(1)
        #: Trace-id counter: shed/rejected submissions get no query id but
        #: still get a trace.
        self._submissions = itertools.count(1)
        #: Every journal ever minted, in submission order.
        self.journals: list[QueryJournal] = []
        #: Unsettled futures by query id (for :meth:`cancel`).
        self._inflight: dict[int, QueryFuture] = {}
        #: Breaker transitions are per handle, so not journalled.
        self._breaker_events: list[TraceEvent] = []
        self._closed = False
        self.register_tenant("default", 1.0)
        if start:
            self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler pool (idempotent)."""
        self.scheduler.start()

    def close(self) -> None:
        """Drain in-flight queries and stop the scheduler pool."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()

    def drain(self) -> None:
        self.scheduler.drain()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants & sessions -------------------------------------------------

    def register_tenant(self, name: str, weight: float = 1.0) -> TenantAccount:
        """Create (or re-weight) a tenant's fair-share account."""
        self.scheduler.fairshare.register(name, weight)
        with self._lock:
            if name not in self._ledgers:
                fields = dataclasses.fields(TenantAccount)[1:]
                self._ledgers[name] = {f.name: f.default for f in fields}
            self._ledgers[name]["weight"] = weight
            return self.tenant(name)

    def tenant(self, name: str) -> TenantAccount:
        with self._lock:
            ledger = self._ledgers.get(name)
            if ledger is None:
                raise AdmissionError(
                    f"unknown tenant {name!r}; register it (or open a session) first"
                )
            return TenantAccount(name, **ledger)

    def tenants(self) -> list[TenantAccount]:
        with self._lock:
            return [self.tenant(name) for name in sorted(self._ledgers)]

    def session(self, tenant: str = "default", weight: float = 1.0) -> "QuerySession":
        """Open a tenant-bound session (registers the tenant)."""
        self.register_tenant(tenant, weight)
        return QuerySession(self, tenant)

    # -- deploy -------------------------------------------------------------

    def deploy(
        self, name: str, query, join_strategy: str = "exchange",
        defaults: RunOptions | None = None,
    ) -> PreparedPlan:
        """Verify and freeze a query against the server's catalog."""
        return self.registry.deploy(
            name, query, self.catalog, self.cluster,
            join_strategy=join_strategy, defaults=defaults,
        )

    # -- run ----------------------------------------------------------------

    def submit(
        self, handle: str, tenant: str = "default", options: RunOptions | None = None,
        deadline: float | None = None,
    ) -> QueryFuture:
        """Admit one run of a deployed plan; returns immediately.

        ``deadline`` is a simulated-seconds budget (the axis of
        ``ExecutionReport.simulated_time``), checked at quantum boundaries
        and spanning server-level retries.  The admission gates run in
        the order listed below.

        Raises:
            CircuitOpenError: The plan's circuit breaker has quarantined
                this handle after repeated terminal failures.
            AdmissionError: The hard ``max_pending`` bound, or an unknown
                ``handle``/``tenant``.
            OverloadShedError: Above ``shed_threshold * max_pending``
                in-flight queries, the tenant already holds its
                weight-proportional share of slots.
        """
        if self._closed:
            raise AdmissionError("server is closed")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.tenant(tenant)
        prepared = self.registry.get(handle)
        with self._lock:
            # Minted for *every* submission: shed and rejected queries get
            # a trace and an audited fate too.
            submission = next(self._submissions)
            trace_id = TraceContext.for_query(submission).trace_id
            journal = QueryJournal(trace_id, submission, tenant, prepared.handle)
            journal._wall_start = time.perf_counter()
            self.journals.append(journal)
            extra = {"deadline": deadline} if deadline is not None else {}
            self._file(journal, "submitted", **extra)
        breaker = self.registry.breaker_for(
            prepared.handle, self.breaker_config, self._on_breaker_transition
        )
        try:
            breaker.admit()
        except CircuitOpenError as exc:
            self._file(journal, "rejected", reason=f"breaker_{exc.state}")
            raise
        try:
            future = self._admit(journal)
            query = _Query(
                prepared, breaker, future, journal,
                options if options is not None else prepared.defaults, deadline,
            )
            # Contract check + lowering happen now, so submit() fails fast
            # and the scheduler only ever sees runnable work.
            try:
                self.scheduler.submit(self._make_attempt(query))
            except BaseException as exc:
                self._file(journal, "rejected", reason=type(exc).__name__)
                raise
        except BaseException:
            # Release a half-open probe slot the admission gates or a
            # failed instantiation consumed (no-op when closed).
            breaker.abandon()
            raise
        return future

    def run(
        self, handle: str, tenant: str = "default", options: RunOptions | None = None,
        timeout: float | None = None, deadline: float | None = None,
    ) -> QueryOutcome:
        """Submit and block for the outcome."""
        future = self.submit(handle, tenant=tenant, options=options, deadline=deadline)
        return future.result(timeout)

    def cancel(self, query_id: int) -> bool:
        """Cooperatively cancel an in-flight query by id (``False`` for
        unknown or already-settled queries)."""
        with self._lock:
            future = self._inflight.get(query_id)
        return future is not None and future.cancel()

    # -- admission and settlement -------------------------------------------

    def _admit(self, journal: QueryJournal) -> QueryFuture:
        """The ``max_pending`` and shedding gates, then the slot reservation,
        all under the settlement lock — so concurrent submitters cannot
        all pass the check before any of them reserves."""
        with self._lock:
            ledgers = self._ledgers.values()
            pending = sum(ledger["in_flight"] for ledger in ledgers)
            if pending >= self.max_pending:
                self._file(journal, "rejected", reason="max_pending")
                raise AdmissionError(
                    f"admission control: {self.max_pending} queries already "
                    f"in flight; retry after a completion"
                )
            mine = self._ledgers[journal.tenant]
            in_flight = mine["in_flight"]
            if pending >= max(1, math.ceil(self.shed_threshold * self.max_pending)):
                share = mine["weight"] / sum(ledger["weight"] for ledger in ledgers)
                entitlement = max(1, int(self.max_pending * share))
                if in_flight >= entitlement:
                    self._file(
                        journal, "shed", reason="overload_shed",
                        in_flight=in_flight, entitlement=entitlement,
                    )
                    raise OverloadShedError(
                        f"overload shedding: {pending}/{self.max_pending} "
                        f"queries in flight and tenant {journal.tenant!r} "
                        f"already holds {in_flight} of its {entitlement} "
                        f"slot(s)",
                        tenant=journal.tenant, in_flight=in_flight,
                        entitlement=entitlement,
                    )
            query_id = next(self._query_ids)
            future = QueryFuture(query_id, journal.tenant, journal.handle, self)
            self._inflight[query_id] = future
            journal.query_id = query_id
            self._file(journal, "admitted", query_id=query_id)
        return future

    def _file(self, journal: QueryJournal, kind: str, **entry) -> None:
        """The one write: append ``kind`` to the journal, then fold it.

        ``kind`` is a journal entry kind, or a terminal state that settles
        the journal.  The tenant ledger, the server-side ``serving_*``
        metrics and ``HandleStats`` change here and nowhere else, under
        one lock and before any future resolves — so no settlement path
        can update one record and miss another, and a caller back from
        ``result()`` sees its outcome counted.
        """
        with self._lock:
            if kind in LEDGER_BUCKETS:
                journal.settle(kind, **entry)
                journal.wall_seconds = time.perf_counter() - journal._wall_start
            else:
                journal.note(kind, **entry)
            self._fold(journal, kind)

    def _fold(self, journal: QueryJournal, kind: str) -> None:
        """Fold one just-filed journal entry into the ledger, the server-side
        metrics and ``HandleStats`` (settlement lock held)."""
        tenant, handle, terminal = journal.tenant, journal.handle, kind
        ledger, metrics = self._ledgers[tenant], self.metrics
        if kind == "submitted":
            ledger["submitted"] += 1
        elif kind == "admitted":
            ledger["in_flight"] += 1
            metrics.gauge("serving_in_flight", tenant=tenant).add(1)
        elif kind == "retry_scheduled":
            ledger["retries"] += 1
            metrics.counter("serving_retries", tenant=tenant).inc()
        if kind not in LEDGER_BUCKETS:
            return
        ledger[LEDGER_BUCKETS[terminal]] += 1
        ledger["steps"] += journal.steps
        if journal.query_id >= 0:  # admitted: release its in-flight slot
            ledger["in_flight"] -= 1
            metrics.gauge("serving_in_flight", tenant=tenant).add(-1)
            self._inflight.pop(journal.query_id, None)
        if terminal != "completed":  # the scheduler counts completions
            metrics.counter(f"serving_{terminal}", tenant=tenant).inc()
        if journal.reason.startswith("breaker_"):
            metrics.counter("serving_breaker_rejected", handle=handle).inc()
        latency = journal.total_seconds
        if terminal == "completed":
            ledger["simulated_seconds"] += latency
            millis = metrics.counter("serving_simulated_millis", tenant=tenant)
            millis.add(int(latency * 1000))
            metrics.histogram(
                "serving_latency_seconds", SERVING_LATENCY_BOUNDS, tenant=tenant
            ).observe(latency)
            metrics.histogram(
                "serving_handle_latency_seconds", SERVING_LATENCY_BOUNDS, handle=handle
            ).observe(latency)
        if terminal in ("completed", "failed", "deadline_missed"):
            # Failures and deadline misses burn the error budget and count
            # toward the handle's settled denominator even though they
            # contribute no latency sample.
            metrics.counter("serving_handle_settled", handle=handle).inc()
            if self.slo is not None and (
                terminal != "completed" or latency > self.slo.target_for(tenant)
            ):
                metrics.counter("serving_slo_miss", tenant=tenant).inc()
                metrics.counter("serving_slo_miss", handle=handle).inc()
        self.registry.observe_journal(journal)

    # -- execution attempts -------------------------------------------------

    def _make_attempt(
        self, query: _Query, attempt: int = 1, carry_steps: int = 0,
        carry_first_seq: int = -1, carry_elapsed: float = 0.0,
    ) -> QueryTask:
        """One scheduler attempt of one query (retries re-enter here).

        The private driver clock starts at ``carry_elapsed`` (previous
        attempts plus backoff), so deadlines span the retry chain; the fault
        seed is bumped by ``attempt - 1`` so a retry does not replay the
        faults that killed its predecessor.  The attempt runs under its own
        child span ``<trace>/aN``; rank spans are stamped at settlement.
        """
        opts = query.options
        if attempt > 1 and opts.faults is not None:
            seed = opts.faults.seed + attempt - 1
            opts = opts.replace(faults=dataclasses.replace(opts.faults, seed=seed))
        lowered = query.prepared.instantiate(self.catalog, self.cluster, opts)
        ctx = ExecutionContext.from_options(opts)
        root = TraceContext.for_query(query.journal.submission)
        ctx.trace = root.for_attempt(attempt)
        if carry_elapsed:
            ctx.clock.advance(carry_elapsed)
        self._file(
            query.journal, "attempt_started", span_id=ctx.trace.span_id,
            attempt=attempt, sim_time=carry_elapsed, carry_steps=carry_steps,
        )

        def on_done(task: QueryTask, result, error: BaseException | None) -> None:
            journal = query.journal
            if not journal.queue_wall_seconds and task.started_wall:
                # Informational submit-to-first-morsel wall-clock wait.
                journal.queue_wall_seconds = task.started_wall - journal._wall_start
            if error is None:
                try:
                    frame = lowered.result_frame(result)
                except BaseException as exc:  # noqa: BLE001 - via future
                    self._fail(query, task, exc)
                else:
                    self._complete(query, task, result, frame)
            else:
                self._retry_or_fail(query, task, error)

        return QueryTask(
            query.future.query_id, query.future.tenant, query.prepared.handle,
            lowered.execution(self.catalog, opts, ctx=ctx),
            steps_done=carry_steps, first_seq=carry_first_seq, on_done=on_done,
            deadline=query.deadline, sim_now=lambda: ctx.clock.now,
            attempt=attempt, cancel=query.future._cancel, trace=ctx.trace,
        )

    def _retry_or_fail(
        self, query: _Query, task: QueryTask, error: BaseException
    ) -> None:
        """Re-submit a retryable failure within budget; settle otherwise."""
        retry = self.retry
        if retry is not None and is_retryable(error):
            if task.attempt < retry.max_attempts and not task.cancel.is_set():
                backoff = retry.backoff(task.attempt)
                query.journal.record_backoff(backoff)
                self._file(
                    query.journal, "retry_scheduled", span_id=task.trace.span_id,
                    attempt=task.attempt, sim_time=task.elapsed(),
                    backoff=backoff, reason=type(error).__name__,
                )
                try:
                    self.scheduler.submit(
                        self._make_attempt(
                            query, task.attempt + 1, task.steps_done,
                            task.first_seq, task.elapsed() + backoff,
                        )
                    )
                except BaseException as exc:  # noqa: BLE001 - via future
                    self._fail(query, task, exc)
                return
            error = RetriesExhausted(
                f"query {task.query_id} ({task.label}) failed retryably "
                f"on all {task.attempt} attempt(s)",
                query_id=task.query_id, tenant=task.tenant, handle=task.label,
                attempts=task.attempt, last_error=error,
            )
        self._fail(query, task, error)

    def _complete(
        self, query: _Query, task: QueryTask, result: "ExecutionReport", frame: "Frame"
    ) -> None:
        """Settle a successful attempt: breaker, journal, future."""
        query.breaker.record_success()
        # Post-hoc causal stamping: the execution hot path ran cold; the
        # surviving attempt's spans, substrate events, and recovery log
        # are linked to the query here, once, at settlement.
        stamp_report(result, task.trace)
        span, rows, sim = task.trace.span_id, len(result.rows), result.simulated_time
        journal = query.journal
        self._file(
            journal, "attempt_finished", span_id=span, attempt=task.attempt,
            sim_time=sim, steps=task.steps_done, rows=rows,
        )
        journal.first_seq, journal.last_seq = task.first_seq, task.last_seq
        self._file(
            journal, "completed", span_id=span, attempt=task.attempt,
            sim_time=sim, steps=task.steps_done, result_rows=rows,
        )
        outcome = QueryOutcome(
            task.query_id, task.tenant, task.label, result, frame,
            task.steps_done, task.first_seq, task.last_seq, journal, task.attempt,
        )
        query.future._resolve(outcome, None)

    def _fail(self, query: _Query, task: QueryTask, error: BaseException) -> None:
        """Settle a terminal non-success outcome: breaker, journal, future."""
        if isinstance(error, (QueryCancelled, DeadlineExceeded)):
            # Cancels and deadlines are client actions and budgets, not
            # evidence about the plan (a poisoned plan fails, it does not
            # dawdle): the breaker only releases its probe slot.
            cancelled = isinstance(error, QueryCancelled)
            kind = "cancelled" if cancelled else "deadline_missed"
            query.breaker.abandon()
        else:
            kind = "failed"
            query.breaker.record_failure(terminal=True)
        query.journal.first_seq, query.journal.last_seq = task.first_seq, task.last_seq
        self._file(
            query.journal, kind, span_id=task.trace.span_id, attempt=task.attempt,
            sim_time=task.elapsed(), steps=task.steps_done,
            reason=type(error).__name__,
        )
        query.future._resolve(None, error)

    def _on_breaker_transition(self, handle: str, old: str, new: str) -> None:
        transition, code = f"breaker_{new.replace('-', '_')}", BREAKER_STATE_CODES[new]
        with self._lock:
            self.metrics.gauge("serving_breaker_state", handle=handle).set(code)
            self._breaker_events.append(
                lifecycle_event(transition, handle=handle, reason=f"{old}->{new}")
            )

    # -- observability ------------------------------------------------------

    @property
    def lifecycle_events(self) -> list[TraceEvent]:
        """Lifecycle transitions: derived from the journals in submission
        order (:meth:`QueryJournal.lifecycle_events`), then the breakers'."""
        with self._lock:
            events = [e for j in self.journals for e in j.lifecycle_events()]
            return events + self._breaker_events

    def snapshot(self):
        """Point-in-time snapshot of the serving metrics registry."""
        with self._lock:
            return self.metrics.snapshot()

    def journal_for(self, trace_id: str) -> QueryJournal | None:
        """The journal minted for one trace id (``None`` if unknown)."""
        with self._lock:
            return next((j for j in self.journals if j.trace_id == trace_id), None)

    def slo_report(self):
        """SLO accounting over the current snapshot (armed or not)."""
        from repro.observability.slo import build_slo_report

        return build_slo_report(self.snapshot(), self.slo)


class QuerySession:
    """A tenant-bound view of a :class:`Server` (deploy → run)."""

    def __init__(self, server: Server, tenant: str) -> None:
        self.server = server
        self.tenant = tenant

    def deploy(
        self, name: str, query, join_strategy: str = "exchange",
        defaults: RunOptions | None = None,
    ) -> PreparedPlan:
        return self.server.deploy(name, query, join_strategy, defaults)

    def submit(
        self, handle: str, options: RunOptions | None = None,
        deadline: float | None = None,
    ) -> QueryFuture:
        return self.server.submit(handle, self.tenant, options, deadline)

    def run(
        self, handle: str, options: RunOptions | None = None,
        timeout: float | None = None, deadline: float | None = None,
    ) -> QueryOutcome:
        return self.server.run(handle, self.tenant, options, timeout, deadline)

    def account(self) -> TenantAccount:
        return self.server.tenant(self.tenant)
