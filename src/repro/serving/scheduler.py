"""Morsel-driven work-stealing scheduler with stride fair-share.

The driver/executor split gives every admitted query a *stepwise*
execution generator (:func:`repro.core.executor.execution_steps` via
:meth:`ModularisQuery.execution`): each ``next()`` advances the query by
one driver-level morsel.  That makes the morsel the natural preemption
unit — "The Case for Deep Query Optimisation" argues sub-operator/morsel
granularity is the right level for exactly this kind of scheduling — and
lets a small pool of driver workers interleave arbitrarily many queries
without threads-per-query or cooperative timeouts.

Structure (classic morsel-driven work stealing, adapted to the driver):

* one deque per worker; submissions land on the shortest deque;
* a worker pops from its *own* deque head, picking the runnable task
  whose tenant has the lowest stride-scheduling pass (fair share);
* an empty worker steals from the *tail* of a victim's deque
  (``serving_steals`` counts these);
* a picked task runs for a *quantum* of morsel steps, then is re-enqueued
  (or completed, resolving its future).

A task lives in exactly one deque or one worker's hands at any moment, so
its generator is only ever advanced by one thread at a time — generators
need no locking under that discipline.  Each query's execution owns a
private context/clock and every ``SimCluster.run`` call builds a fresh
``CommWorld``, so interleavings cannot affect results (asserted
bit-identical by the soak tests).

Fair share is stride scheduling over *tenants*: tenant weight ``w`` gives
stride ``1/w``; every morsel step executed on a tenant's behalf advances
its pass by its stride, and pick-for-run always favors the lowest pass.
A starved tenant's pass falls behind, so its next runnable task wins every
pick until it catches up — no tenant can be starved beyond its weight.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import DeadlineExceeded, QueryCancelled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.metrics import MetricsRegistry

__all__ = ["QueryTask", "SchedulerEvent", "WorkStealingScheduler", "FairShare"]


class FairShare:
    """Stride-scheduling accounts, one per tenant."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._weights: dict[str, float] = {}
        self._passes: dict[str, float] = {}

    def register(self, tenant: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {weight}")
        with self._lock:
            self._weights[tenant] = float(weight)
            # Join at the current minimum pass so a new tenant neither
            # monopolizes (pass 0 while others are far ahead) nor waits.
            floor = min(self._passes.values(), default=0.0)
            self._passes.setdefault(tenant, floor)

    def charge(self, tenant: str, steps: int) -> None:
        """Advance ``tenant``'s pass by ``steps`` morsels of work."""
        with self._lock:
            weight = self._weights.get(tenant, 1.0)
            self._passes[tenant] = self._passes.get(tenant, 0.0) + steps / weight

    def pass_of(self, tenant: str) -> float:
        with self._lock:
            return self._passes.get(tenant, 0.0)

    def weight_of(self, tenant: str) -> float:
        with self._lock:
            return self._weights.get(tenant, 1.0)


@dataclass
class QueryTask:
    """One admitted query riding the scheduler."""

    query_id: int
    tenant: str
    label: str
    #: The stepwise execution; ``StopIteration.value`` is its result.
    steps: Iterator[int]
    #: Morsel steps executed so far.  Carried across server-level retry
    #: attempts so tenant ledgers account every morsel the query consumed.
    steps_done: int = 0
    #: Global step-sequence numbers of the first/last morsel (for
    #: interleaving evidence); -1 until the first step runs.
    first_seq: int = -1
    last_seq: int = -1
    #: Completion callback(task, result, error) installed by the server.
    on_done: Any = None
    #: Simulated-seconds budget for this query (``None`` = no deadline),
    #: checked against :attr:`sim_now` at every quantum boundary.
    deadline: float | None = None
    #: Reads the query's simulated clock (the driver context's
    #: ``clock.now``); the only time source lifecycle decisions may use.
    sim_now: Callable[[], float] | None = None
    #: Server-level attempt number (1 = first submission).
    attempt: int = 1
    #: Cooperative-cancellation flag, shared across retry attempts of the
    #: same query so a cancel lands no matter which attempt is running.
    cancel: threading.Event = field(default_factory=threading.Event)
    #: The attempt's :class:`~repro.observability.tracing.TraceContext`
    #: (``None`` for tasks submitted outside a server); every scheduler
    #: event of this task carries its trace id.
    trace: Any = None
    #: Wall-clock instant the first morsel of this attempt was scheduled
    #: (0.0 until then); the server derives journal queue-wait from it.
    #: Informational only — never an input to lifecycle decisions.
    started_wall: float = 0.0
    result: Any = None
    error: BaseException | None = None
    done: bool = False

    def finish(self, result=None, error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self.done = True
        if self.on_done is not None:
            self.on_done(self, result, error)

    def elapsed(self) -> float:
        """Simulated seconds this query has consumed (0 without a clock)."""
        return self.sim_now() if self.sim_now is not None else 0.0


@dataclass(frozen=True)
class SchedulerEvent:
    """One quantum in the scheduler trace: who ran what, when, how far.

    The trace is the serving analogue of the execution profiler's span
    list — ``repro serve`` prints it and the soak tests assert on it to
    prove queries actually interleaved (events of different queries
    overlap in sequence order) rather than ran back-to-back.
    """

    seq: int
    worker: int
    query_id: int
    tenant: str
    label: str
    steps: int
    stolen: bool
    #: Causal link to the query (and attempt) this quantum advanced;
    #: empty for tasks without a trace context.
    trace_id: str = ""
    span_id: str = ""


class WorkStealingScheduler:
    """Interleave stepwise query executions across a worker-thread pool."""

    def __init__(
        self,
        n_workers: int = 4,
        quantum: int = 1,
        metrics: "MetricsRegistry | None" = None,
        fairshare: FairShare | None = None,
        trace: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if quantum < 1:
            raise ValueError(f"quantum must be at least one morsel, got {quantum}")
        self.n_workers = n_workers
        self.quantum = quantum
        self.metrics = metrics
        self.fairshare = fairshare if fairshare is not None else FairShare()
        self._queues: list[deque[QueryTask]] = [deque() for _ in range(n_workers)]
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._running = 0
        self._shutdown = False
        self._threads: list[threading.Thread] = []
        self._step_seq = itertools.count()
        self._quantum_seq = itertools.count()
        self.trace: list[SchedulerEvent] | None = [] if trace else None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._threads:
            return
        for worker_id in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(worker_id,),
                name=f"serve-worker-{worker_id}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def close(self) -> None:
        """Stop the pool after in-flight work drains.

        A pool that was never started cannot make progress on pending
        tasks, so closing one skips the drain (their futures stay
        unresolved) instead of deadlocking on work no thread will run.
        """
        if self._threads:
            self.drain()
        with self._lock:
            self._shutdown = True
            self._work_available.notify_all()
        for thread in self._threads:
            thread.join(timeout=60)
        self._threads.clear()

    def drain(self) -> None:
        """Block until every submitted task has completed."""
        with self._idle:
            self._idle.wait_for(lambda: self._in_flight == 0)

    # -- submission ---------------------------------------------------------

    def submit(self, task: QueryTask) -> None:
        """Admit a task: shortest-queue placement, then wake a worker."""
        self.fairshare.register(task.tenant, self.fairshare.weight_of(task.tenant))
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            queue = min(self._queues, key=len)
            queue.append(task)
            self._in_flight += 1
            self._work_available.notify()
            if self.metrics is not None:
                self.metrics.counter("serving_submitted", tenant=task.tenant).inc()

    def pending(self) -> int:
        """Tasks admitted but not yet completed (queued or mid-quantum)."""
        with self._lock:
            return self._in_flight

    def kick(self) -> None:
        """Wake idle workers (e.g. so a cancellation lands promptly)."""
        with self._lock:
            self._work_available.notify_all()

    # -- the worker loop ----------------------------------------------------

    def _pick_own(self, worker_id: int) -> QueryTask | None:
        """Lowest-tenant-pass task from the worker's own deque.

        Caller holds the lock.  A linear pass over the deque is fine:
        driver queues are short (bounded by admission control), and the
        fairness win — the starved tenant's task runs *now*, not after
        everything queued ahead of it — is the point of the exercise.
        """
        queue = self._queues[worker_id]
        if not queue:
            return None
        best_index = 0
        best_pass = None
        for index, task in enumerate(queue):
            tenant_pass = self.fairshare.pass_of(task.tenant)
            if best_pass is None or tenant_pass < best_pass:
                best_pass = tenant_pass
                best_index = index
        queue.rotate(-best_index)
        task = queue.popleft()
        queue.rotate(best_index)
        return task

    def _steal(self, worker_id: int) -> QueryTask | None:
        """Take the tail of the fullest other deque (caller holds lock)."""
        victim = None
        for other_id, queue in enumerate(self._queues):
            if other_id == worker_id or not queue:
                continue
            if victim is None or len(queue) > len(self._queues[victim]):
                victim = other_id
        if victim is None:
            return None
        return self._queues[victim].pop()

    def _worker_loop(self, worker_id: int) -> None:
        while True:
            with self._lock:
                task = self._pick_own(worker_id)
                stolen = False
                if task is None:
                    task = self._steal(worker_id)
                    stolen = task is not None
                if task is None:
                    if self._shutdown:
                        return
                    self._work_available.wait(timeout=0.5)
                    continue
                self._running += 1
            try:
                self._run_quantum(worker_id, task, stolen)
            finally:
                with self._lock:
                    self._running -= 1
                    if task.done:
                        self._in_flight -= 1
                        if self._in_flight == 0:
                            self._idle.notify_all()
                    else:
                        self._queues[worker_id].append(task)
                        self._work_available.notify()

    def _check_lifecycle(self, task: QueryTask) -> None:
        """Raise the cooperative lifecycle verdicts (cancel, deadline).

        Called between morsel steps — the only preemption points — so a
        cancel or deadline miss never interrupts a step mid-flight.  Both
        verdicts read deterministic inputs (the cancel flag set by the
        server, the query's own simulated clock), never wall time.
        """
        if task.cancel.is_set():
            raise QueryCancelled(
                f"query {task.query_id} ({task.label!r}) cancelled after "
                f"{task.steps_done} morsel step(s)",
                query_id=task.query_id,
                tenant=task.tenant,
                handle=task.label,
            )
        if task.deadline is not None:
            elapsed = task.elapsed()
            if elapsed > task.deadline:
                raise DeadlineExceeded(
                    f"query {task.query_id} ({task.label!r}) exceeded its "
                    f"deadline of {task.deadline:.6f} simulated seconds "
                    f"(elapsed {elapsed:.6f})",
                    query_id=task.query_id,
                    tenant=task.tenant,
                    handle=task.label,
                    deadline=task.deadline,
                    elapsed=elapsed,
                )

    def _run_quantum(self, worker_id: int, task: QueryTask, stolen: bool) -> None:
        """Advance one task by up to ``quantum`` morsel steps."""
        if task.started_wall == 0.0:
            task.started_wall = time.perf_counter()
        steps = 0
        try:
            for _ in range(self.quantum):
                self._check_lifecycle(task)
                seq = next(self._step_seq)
                if task.first_seq < 0:
                    task.first_seq = seq
                task.last_seq = seq
                next(task.steps)
                steps += 1
                task.steps_done += 1
        except StopIteration as done:
            # The final next() still performed driver work (result harvest,
            # snapshotting); count it as a step for fair-share purposes.
            steps += 1
            task.steps_done += 1
            task.last_seq = next(self._step_seq)
            if task.first_seq < 0:
                task.first_seq = task.last_seq
            task.finish(result=done.value)
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            # Close the suspended generator so its finally blocks run (it
            # is a no-op when the error escaped from inside the generator).
            task.steps.close()
            task.finish(error=exc)
        self.fairshare.charge(task.tenant, steps)
        if self.trace is not None:
            self.trace.append(
                SchedulerEvent(
                    seq=next(self._quantum_seq),
                    worker=worker_id,
                    query_id=task.query_id,
                    tenant=task.tenant,
                    label=task.label,
                    steps=steps,
                    stolen=stolen,
                    trace_id=task.trace.trace_id if task.trace is not None else "",
                    span_id=task.trace.span_id if task.trace is not None else "",
                )
            )
        if self.metrics is not None:
            # Counter bumps are plain ``+=``; serialize them under the
            # scheduler lock so soak-level ledger reconciliation is exact.
            with self._lock:
                self.metrics.counter("serving_steps", tenant=task.tenant).add(steps)
                self.metrics.counter("serving_quanta", worker=str(worker_id)).inc()
                if stolen:
                    self.metrics.counter(
                        "serving_steals", worker=str(worker_id)
                    ).inc()
                if task.done and task.error is None:
                    # Success only; cancelled/deadline-missed/failed outcomes
                    # are classified and counted by the server's on_done.
                    self.metrics.counter(
                        "serving_completed", tenant=task.tenant
                    ).inc()
