"""Causal trace contexts and per-query journals for the serving layer.

Every query admitted by :class:`~repro.serving.server.Server` gets a
:class:`TraceContext` minted at ``submit()`` and propagated through the
scheduler (:class:`~repro.serving.scheduler.SchedulerEvent.trace_id`),
each server-level retry attempt (one child span per attempt), the
execution context (:attr:`~repro.core.context.ExecutionContext.trace`)
and stage recovery (one child span per rank).  At settlement the server
stamps the attempt's report — operator spans, substrate trace events,
fault/retry/recovery events — with the attempt's context, so every
:class:`~repro.observability.events.SimEvent` a soak run produces
resolves to exactly one submitted query::

    serve-000007                       query root (one per submission)
    └── serve-000007/a1                attempt span (one per retry attempt)
        ├── serve-000007/a1/r0         rank span (one per executor rank)
        ├── serve-000007/a1/r1
        └── serve-000007/a1/stage:...  recovery spans at stage boundaries

Span ids are deterministic path strings derived from the submission
index — no randomness, no wall clock — so the journal replay test can
assert bit-identical traces across reruns of the same seed.

The :class:`QueryJournal` is the append-only audit record of one
submission's lifecycle (submit → admit → attempt(s) → recovery →
settle) with causal span links and a timing decomposition (backoff,
execution, total on the simulated axis; queue wait on the informational
wall axis).  It is the serving layer's one settlement record: the tenant
ledger, the ``serving_*`` settlement metrics, the per-handle statistics
(:meth:`~repro.serving.registry.PlanRegistry.stats_for` — the
observed-behaviour feed a cost-based re-optimizer needs) and the
lifecycle events (:meth:`QueryJournal.lifecycle_events`) are all folds
over journal entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.observability.events import DRIVER_RANK, LifecycleDetail, SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import ExecutionReport
    from repro.mpi.trace import TraceEvent

__all__ = [
    "TraceContext",
    "JournalEvent",
    "QueryJournal",
    "stamp_event",
    "stamp_events",
    "stamp_report",
    "lifecycle_event",
]


@dataclass(frozen=True)
class TraceContext:
    """One node of a query's causal span tree.

    Attributes:
        trace_id: Identity of the whole query trace (one per submission).
        span_id: This node's span — a deterministic path string, e.g.
            ``serve-000003/a2/r1`` (submission 3, attempt 2, rank 1).
        parent_span_id: The parent node's span (empty at the root).
        attempt: Server-level attempt this span belongs to (0 = root,
            before any attempt exists).
        stage: What kind of node this is — ``""`` (root) | ``attempt`` |
            ``rank`` | a recovery stage label.
    """

    trace_id: str
    span_id: str
    parent_span_id: str = ""
    attempt: int = 0
    stage: str = ""

    @classmethod
    def for_query(cls, submission: int, component: str = "serve") -> "TraceContext":
        """Mint the root context for one submission.

        ``submission`` is the server's monotone submission counter (not
        the query id: shed and rejected submissions never get a query id
        but still get a trace), so ids are deterministic in submission
        order.
        """
        trace_id = f"{component}-{submission:06d}"
        return cls(trace_id=trace_id, span_id=trace_id)

    def for_attempt(self, attempt: int) -> "TraceContext":
        """The child span of server-level retry attempt ``attempt``."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{self.span_id}/a{attempt}",
            parent_span_id=self.span_id,
            attempt=attempt,
            stage="attempt",
        )

    def for_rank(self, rank: int) -> "TraceContext":
        """The child span of one executor rank within this attempt."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{self.span_id}/r{rank}",
            parent_span_id=self.span_id,
            attempt=self.attempt,
            stage="rank",
        )

    def for_stage(self, stage: str) -> "TraceContext":
        """A named child span (recovery stages, driver phases)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{self.span_id}/{stage}",
            parent_span_id=self.span_id,
            attempt=self.attempt,
            stage=stage,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "attempt": self.attempt,
            "stage": self.stage,
        }


# -- event stamping ----------------------------------------------------------


def stamp_event(event: SimEvent, ctx: TraceContext) -> bool:
    """Link one (frozen) event to a trace context, in place.

    Events carry empty trace fields until their query settles; stamping
    then is a handful of ``object.__setattr__`` calls per event, so the
    execution hot path pays nothing for tracing (the bench-smoke gate).
    Rank-attributed events (``rank >= 0``) land under the context's rank
    child span; driver events attach to the context itself.  Already
    stamped events are left alone (returns ``False``).
    """
    if event.trace_id:
        return False
    if event.rank >= 0:
        span_id = f"{ctx.span_id}/r{event.rank}"
        parent = ctx.span_id
    else:
        span_id = ctx.span_id
        parent = ctx.parent_span_id
    object.__setattr__(event, "trace_id", ctx.trace_id)
    object.__setattr__(event, "span_id", span_id)
    object.__setattr__(event, "parent_span_id", parent)
    return True


def stamp_events(events: Iterable[SimEvent], ctx: TraceContext) -> int:
    """Stamp a batch of events; returns how many were newly linked."""
    return sum(1 for event in events if stamp_event(event, ctx))


def stamp_report(report: "ExecutionReport", ctx: TraceContext) -> int:
    """Stamp everything one attempt's report recorded with its context.

    Covers operator spans (the profiler), substrate trace events per
    rank (puts, collectives, windows, faults, retries), and driver-side
    recovery events.  Returns the number of events stamped.
    """
    stamped = 0
    profile = getattr(report, "profile", None)
    if profile is not None and getattr(profile, "spans", None):
        stamped += stamp_events(profile.spans, ctx)
    for trace in getattr(report, "traces", ()):
        stamped += stamp_events(trace.events(), ctx)
    stamped += stamp_events(getattr(report, "recovery_events", ()), ctx)
    return stamped


# -- per-query journals ------------------------------------------------------


@dataclass(frozen=True)
class JournalEvent:
    """One audit entry in a query's journal.

    ``detail`` is a sorted ``(key, value)`` tuple — JSON-clean and
    hashable, so journals compare bit-identical across replays.
    """

    kind: str
    span_id: str
    attempt: int
    #: The query's simulated clock when the entry was filed (0.0 for
    #: admission-time entries, which precede any execution).
    sim_time: float
    detail: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "span_id": self.span_id,
            "attempt": self.attempt,
            "sim_time": self.sim_time,
            "detail": dict(self.detail),
        }


def lifecycle_event(
    transition: str, span_id: str = "", trace_id: str = "", at: float = 0.0, **detail
) -> "TraceEvent":
    """A driver-rank lifecycle :class:`~repro.mpi.trace.TraceEvent` with a
    :class:`~repro.observability.events.LifecycleDetail` payload."""
    from repro.mpi.trace import TraceEvent

    return TraceEvent(
        rank=DRIVER_RANK, kind="lifecycle", label=transition, start=at, end=at,
        trace_id=trace_id, span_id=span_id,
        parent_span_id=span_id.rpartition("/")[0],
        detail=LifecycleDetail(transition=transition, **detail),
    )


class QueryJournal:
    """Append-only audit record of one submission's lifecycle.

    Every ``submit()`` call creates exactly one journal — including
    submissions that never reach the scheduler (shed, rejected,
    breaker-rejected) — and every journal settles into exactly one
    terminal state, the tenant ledger bucket it is folded into.  All
    canonical content (:meth:`as_dict` default) is derived from counts
    and simulated clocks only, so two runs of the same config produce
    byte-identical journals.  Wall-clock queue wait and scheduler
    sequence numbers are kept as *informational* fields, excluded from
    the canonical form.

    Not locked: the serving layer files every entry under its one
    settlement lock, and a query's attempts run one at a time.
    """

    TERMINAL_STATES = (
        "completed",
        "cancelled",
        "deadline_missed",
        "failed",
        "shed",
        "rejected",
    )

    def __init__(
        self, trace_id: str, submission: int, tenant: str, handle: str
    ) -> None:
        self.trace_id = trace_id
        self.submission = submission
        self.tenant = tenant
        self.handle = handle
        #: Query id once admitted; -1 for shed/rejected submissions.
        self.query_id = -1
        self.events: list[JournalEvent] = []
        self.terminal = ""
        self.reason = ""
        self.attempts = 0
        self.steps = 0
        self.result_rows = -1
        #: Timing decomposition on the simulated axis (seconds).
        self.total_seconds = 0.0
        self.backoff_seconds = 0.0
        self.execution_seconds = 0.0
        #: Informational only (excluded from the canonical form):
        #: wall-clock submit → settle, submit → first scheduled morsel
        #: (queue wait), and the scheduler step-seq span.
        self.wall_seconds = 0.0
        self.queue_wall_seconds = 0.0
        self.first_seq = -1
        self.last_seq = -1
        #: Wall clock at submit (set by the server; informational).
        self._wall_start = 0.0

    def note(
        self,
        kind: str,
        span_id: str = "",
        attempt: int = 0,
        sim_time: float = 0.0,
        **detail: Any,
    ) -> JournalEvent:
        """File one audit entry (entries stay append-only)."""
        event = JournalEvent(
            kind=kind,
            span_id=span_id or self.trace_id,
            attempt=attempt,
            sim_time=sim_time,
            detail=tuple(sorted(detail.items())),
        )
        self.events.append(event)
        return event

    def record_backoff(self, seconds: float) -> None:
        self.backoff_seconds += seconds

    def settle(
        self,
        terminal: str,
        span_id: str = "",
        attempt: int = 0,
        sim_time: float = 0.0,
        steps: int = 0,
        reason: str = "",
        result_rows: int = -1,
        **detail: Any,
    ) -> None:
        """File the terminal entry and freeze the timing decomposition."""
        if terminal not in self.TERMINAL_STATES:
            raise ValueError(f"unknown terminal state {terminal!r}")
        if self.terminal:
            raise RuntimeError(
                f"journal {self.trace_id} already settled as {self.terminal!r}"
            )
        self.note(
            "settled",
            span_id=span_id,
            attempt=attempt,
            sim_time=sim_time,
            terminal=terminal,
            reason=reason,
            **detail,
        )
        self.terminal = terminal
        self.reason = reason
        self.attempts = max(self.attempts, attempt)
        self.steps = steps
        self.result_rows = result_rows
        self.total_seconds = sim_time
        self.execution_seconds = max(0.0, sim_time - self.backoff_seconds)

    @property
    def settled(self) -> bool:
        return bool(self.terminal)

    def lifecycle_events(self) -> list["TraceEvent"]:
        """The lifecycle transitions this journal records: each retry, then
        the settlement if it was a shed, a breaker fast-fail, a cancel, a
        deadline miss or a failure (completions and cap rejections are
        not transitions)."""
        events = []
        for entry in self.events:
            detail = dict(entry.detail)
            if entry.kind == "retry_scheduled":
                transition, reason = "retry", detail["reason"]
            elif entry.kind != "settled":
                continue
            else:
                transition, reason = detail["terminal"], detail["reason"]
                if transition == "shed":
                    reason = (
                        f"in_flight={detail['in_flight']} >= "
                        f"entitlement={detail['entitlement']}"
                    )
                elif reason.startswith("breaker_"):
                    transition, reason = "breaker_rejected", reason[len("breaker_"):]
                elif transition not in ("cancelled", "deadline_missed", "failed"):
                    continue
            events.append(
                lifecycle_event(
                    transition, span_id=entry.span_id, trace_id=self.trace_id,
                    at=entry.sim_time, query_id=self.query_id, tenant=self.tenant,
                    handle=self.handle, attempt=entry.attempt, reason=reason,
                )
            )
        return events

    def span_links(self) -> list[str]:
        """Every span the journal's entries reference, in filing order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.span_id)
        return list(seen)

    def as_dict(self, canonical: bool = True) -> dict[str, Any]:
        """JSON-clean form; the default (canonical) form is derived from
        counts and simulated clocks only and replays bit-identically.
        Pass ``canonical=False`` to include the informational wall-clock
        and scheduler-sequence fields (artifact exports do)."""
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "submission": self.submission,
            "tenant": self.tenant,
            "handle": self.handle,
            "query_id": self.query_id,
            "terminal": self.terminal,
            "reason": self.reason,
            "attempts": self.attempts,
            "steps": self.steps,
            "result_rows": self.result_rows,
            "total_seconds": self.total_seconds,
            "backoff_seconds": self.backoff_seconds,
            "execution_seconds": self.execution_seconds,
            "events": [event.as_dict() for event in self.events],
        }
        if not canonical:
            out["wall_seconds"] = self.wall_seconds
            out["queue_wall_seconds"] = self.queue_wall_seconds
            out["first_seq"] = self.first_seq
            out["last_seq"] = self.last_seq
        return out

    def render(self) -> str:
        lines = [
            f"journal {self.trace_id}: {self.handle} [{self.tenant}] "
            f"-> {self.terminal or 'in flight'}"
            + (f" ({self.reason})" if self.reason else ""),
            f"  attempts={self.attempts} steps={self.steps} "
            f"total={self.total_seconds:.6f}s "
            f"(execution {self.execution_seconds:.6f}s + "
            f"backoff {self.backoff_seconds:.6f}s)",
        ]
        for event in self.events:
            extras = "".join(
                f" {k}={v}" for k, v in event.detail if v not in ("", -1)
            )
            lines.append(
                f"  [{event.sim_time:.6f}s] {event.kind} "
                f"span={event.span_id}{extras}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryJournal({self.trace_id}, {self.handle!r}, "
            f"terminal={self.terminal!r}, events={len(self.events)})"
        )
