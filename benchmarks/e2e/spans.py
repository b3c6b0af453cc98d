"""In-memory spans for the benchmark's traced run.

The benchmark records spans from outside the program: :meth:`Tracer.wrap`
replaces a function or method of a ``repro`` module with a wrapper that
opens a span around the original call, and :meth:`Tracer.restore` puts
the originals back.  Spans are kept in a list in memory and written as
JSONL only when the run ends.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``None`` for a root) and ``op`` is the operation id
the workload was on when the span opened.  The program is driven from
one thread, so spans nest strictly and a span's self time is its
duration minus the summed durations of its direct children.

(The module is not called ``trace.py`` so that it cannot shadow the
standard library's ``trace`` module on ``sys.path``.)
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: Optional[int], op) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op,
        }


class Tracer:
    """Collects spans while :attr:`active`; wrappers pass straight
    through otherwise, so set-up and warm-up stay out of the trace."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.active = False
        #: Operation id stamped on every span that opens (set by the
        #: workload loop before each operation).
        self.op = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (an operation root)."""
        if not self.active:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Open a span around every call of ``owner.attr``.

        ``owner`` is a module or a class; classmethods and
        staticmethods keep their descriptor type.  ``name`` is the span
        name, or ``name(args, kwargs)`` returning it.  ``count(args,
        kwargs, result)`` may return counter increments.
        """
        raw = vars(owner)[attr]
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if descriptor is not None else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        setattr(owner, attr, descriptor(traced) if descriptor is not None else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def root_time(spans: List[Span]) -> float:
    """Summed duration of the root (operation) spans."""
    return sum(span.duration for span in spans if span.parent is None)


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, median self time,
    and the self time as a share of the root spans' summed duration.

    Root spans' self time is the part of each operation that no layer
    span covers - the unattributed remainder.
    """
    selves = self_times(spans)
    by_name: Dict[str, List[float]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    roots = set()
    for span, own in zip(spans, selves):
        by_name[span.name].append(own)
        totals[span.name] += span.duration
        if span.parent is None:
            roots.add(span.name)
    base = root_time(spans) or 1.0
    return {
        name: {
            "calls": len(owns),
            "total_s": totals[name],
            "self_s": sum(owns),
            "p50_self_s": statistics.median(owns),
            "share": sum(owns) / base,
            "root": name in roots,
        }
        for name, owns in by_name.items()
    }


def unattributed_share(spans: List[Span]) -> float:
    """Root self time over root duration: operation time no layer claims."""
    return sum(row["share"] for row in layer_table(spans).values() if row["root"])


def format_table(table: Dict[str, Dict[str, float]]) -> str:
    """The per-layer self-time table, largest self time first."""
    lines = [
        f"{'span':44s} {'calls':>6s} {'total_s':>9s} {'self_s':>9s} "
        f"{'p50_self_s':>11s} {'share':>7s}"
    ]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        label = name + (" (root: unattributed)" if row["root"] else "")
        lines.append(
            f"{label:44s} {row['calls']:6d} {row['total_s']:9.4f} {row['self_s']:9.4f} "
            f"{row['p50_self_s']:11.6f} {row['share']:7.2%}"
        )
    return "\n".join(lines)


def span_cost() -> float:
    """Seconds one active wrapped call adds over a bare call (measured)."""
    calls = 20000

    class _Probe:
        @staticmethod
        def noop():
            return None

    bare = _Probe.noop
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        bare()
    bare_s = clock() - t0
    tracer = Tracer()
    tracer.wrap(_Probe, "noop", "probe")
    tracer.active = True
    wrapped = _Probe.noop
    t0 = clock()
    for _ in range(calls):
        wrapped()
    wrapped_s = clock() - t0
    tracer.restore()
    return max(0.0, (wrapped_s - bare_s) / calls)
