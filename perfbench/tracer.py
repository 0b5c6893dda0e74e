"""Outside-in span tracer: wraps public calls of the program under test.

The benchmark attributes time to layers without changing the program: it
replaces a handful of public functions and methods with timing wrappers
for the duration of a traced window, and puts the originals back after.
Every span records two clocks — wall time (``time.perf_counter``) and the
calling thread's CPU time (``time.thread_time``) — so waits and work can
be told apart even though the simulated ranks share one interpreter lock.

Spans nest through a per-thread stack.  A thread started on behalf of a
span (a simulated rank) is *adopted* under it, so its spans name that
span as parent and inherit its query id; their time is not subtracted
from the parent's self time, which is measured per thread.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = ["Span", "Tracer", "covered", "self_times"]

_wall = time.perf_counter
_cpu = time.thread_time


class Span(NamedTuple):
    """One timed call. ``thread`` is ``None`` for a wait that no thread ran."""

    sid: int
    name: str
    parent: int | None
    thread: int | None
    query: int | None
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    rows: int = 0


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span], clock: str = "wall") -> dict[int, float]:
    """Span time minus the part of it covered by same-thread child spans.

    ``clock`` is ``"wall"`` (start/end) or ``"cpu"`` (cpu_start/cpu_end).
    Children on other threads (adopted rank threads) run concurrently
    with a waiting parent, so they are not subtracted.
    """
    if clock == "wall":
        interval = lambda s: (s.start, s.end)  # noqa: E731
    elif clock == "cpu":
        interval = lambda s: (s.cpu_start, s.cpu_end)  # noqa: E731
    else:
        raise ValueError(f"unknown clock {clock!r}")
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.sid, []).append(interval(s))
    result = {}
    for s in spans:
        a, b = interval(s)
        result[s.sid] = (b - a) - covered(a, b, children.get(s.sid, ()))
    return result


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counts: dict[str, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- per-thread state -----------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    def current_query(self) -> int | None:
        return getattr(self._local, "query", None)

    def set_query(self, query: int | None) -> int | None:
        """Tag this thread's following spans with ``query``; returns the old tag."""
        previous = getattr(self._local, "query", None)
        self._local.query = query
        return previous

    def adopt(self, parent: int | None, query: int | None) -> None:
        """Make ``parent`` the root span of this (freshly started) thread."""
        self._local.root = parent
        self._local.query = query

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(open_name == name for _, open_name in self._stack())

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else getattr(self._local, "root", None)
        sid = next(self._ids)
        stack.append((sid, name))
        return (sid, name, parent, _wall(), _cpu())

    def finish(self, token: tuple, rows: int = 0) -> None:
        end, cpu_end = _wall(), _cpu()
        sid, name, parent, start, cpu_start = token
        self._stack().pop()
        self.spans.append(
            Span(sid, name, parent, threading.get_ident(), self.current_query(),
                 start, end, cpu_start, cpu_end, rows)
        )

    def record_wait(self, name: str, start: float, end: float) -> None:
        """A span for time spent waiting outside any thread (e.g. a queue)."""
        self.spans.append(
            Span(next(self._ids), name, None, None, self.current_query(),
                 start, end, 0.0, 0.0)
        )

    def wrap(
        self, name: str, fn: Callable, rows: Callable[[tuple], int] | None = None
    ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(token, rows(args) if rows is not None else 0)

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted but not timed (for per-row calls)."""
        counter = self._counts.setdefault(name, [itertools.count(), 0])[0]

        def counted(*args, **kwargs):
            next(counter)  # atomic under the interpreter lock
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def count(self, name: str) -> int:
        """Calls counted under ``name`` so far."""
        entry = self._counts.get(name)
        if entry is None:
            return 0
        # Reading an itertools.count advances it; entry[1] counts the reads.
        value = next(entry[0]) - entry[1]
        entry[1] += 1
        return value

    def steps(self, inner: Iterator, name: str, queued: bool) -> Iterator:
        """Re-yield a stepwise generator, one span per ``next()``.

        The query tag current at this call is re-applied on whichever
        thread advances the generator.  With ``queued`` set, the time
        from this call to the first step is recorded as a wait span.
        """
        # Captured now: a generator body would only run at the first next().
        return self._steps(inner, name, self.current_query(), _wall() if queued else None)

    def _steps(
        self, inner: Iterator, name: str, query: int | None, created: float | None
    ) -> Iterator:
        try:
            while True:
                previous = self.set_query(query)
                if created is not None:
                    self.record_wait("serving.queue_wait", created, _wall())
                    created = None
                token = self.begin(name)
                try:
                    value = next(inner)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.finish(token)
                    self.set_query(previous)
                yield value
        finally:
            inner.close()

    # -- patching -------------------------------------------------------------

    def patch_attr(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` for the traced window (undone by :meth:`restore`)."""
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a method (plain or classmethod) with ``make(original)``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self.patch_attr(cls, attr, classmethod(make(original.__func__)))
        else:
            self.patch_attr(cls, attr, make(original))

    def patch_function(self, fn: Callable, replacement: Callable, prefix: str) -> None:
        """Rebind ``fn`` to ``replacement`` in every loaded module under
        ``prefix`` that imported it by name."""
        name = fn.__name__
        sites = [
            module for mod_name, module in list(sys.modules.items())
            if (mod_name == prefix or mod_name.startswith(prefix + "."))
            and getattr(module, name, None) is fn
        ]
        if not sites:
            raise LookupError(f"{name} is not bound in any loaded {prefix} module")
        for module in sites:
            self.patch_attr(module, name, replacement)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(s.start for s in self.spans)
        tids: dict[int | None, int] = {}
        events = []
        for s in self.spans:
            tid = tids.setdefault(s.thread, len(tids))
            events.append({
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {
                    "sid": s.sid,
                    "parent": s.parent,
                    "query": s.query,
                    "rows": s.rows,
                    "cpu_us": round((s.cpu_end - s.cpu_start) * 1e6, 3),
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
