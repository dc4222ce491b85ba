"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer: name, start, end, the span that caused
it, and the task it belongs to.  Spans are kept in a list and written
out only when the run ends, so recording costs two clock reads and one
append per call.

Very frequent leaf calls (one ``Solver.add_clause`` per clause) are
*coalesced*: consecutive calls under the same parent become one span
whose duration is the summed busy time of the calls and whose ``calls``
attribute counts them.  Self time stays exact, because a parent's self
time subtracts its children's durations, not their wall interval.

The recorder turns itself off in forked children (``os.register_at_fork``):
work inside solver-service and gateway-pool workers is timed only at
the parent-side call that waits for it.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections import defaultdict


class Span:
    """One recorded call; ``dur`` is ``end - start``."""

    __slots__ = ("sid", "name", "start", "end", "parent", "task", "attrs",
                 "coalesced")

    def __init__(self, sid, name, start, parent, task, attrs=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.task = task
        self.attrs = attrs if attrs is not None else {}
        self.coalesced: dict[str, list] | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "task": self.task,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Tracer:
    """Thread-aware span recorder with explicit cross-thread parents."""

    def __init__(self):
        self.enabled = True
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Open root spans by request id, for cross-thread parents.
        self.requests: dict[int, Span] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        return next(self._ids)  # atomic under the interpreter lock

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: Span | None = None,
             task: int | None = None, **attrs) -> Span:
        """Start a span under ``parent`` (default: this thread's top)."""
        if parent is None:
            parent = self.current()
        span = Span(
            self._next_id(), name, time.perf_counter(),
            parent.sid if parent is not None else None,
            task if task is not None or parent is None else parent.task,
            attrs or None,
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            with contextlib.suppress(ValueError):
                stack.remove(span)
        if span.coalesced:
            for name, (start, busy, calls) in span.coalesced.items():
                leaf = Span(self._next_id(), name, start, span.sid,
                            span.task, {"calls": calls})
                leaf.end = start + busy
                self.spans.append(leaf)
            span.coalesced = None
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, parent: Span | None = None,
             task: int | None = None, **attrs):
        opened = self.open(name, parent=parent, task=task, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def accumulate(self, name: str, start: float, end: float) -> None:
        """Fold one short leaf call into its parent's coalesced span."""
        top = self.current()
        if top is None:
            leaf = Span(self._next_id(), name, start, None, None,
                        {"calls": 1})
            leaf.end = end
            self.spans.append(leaf)
            return
        if top.coalesced is None:
            top.coalesced = {}
        slot = top.coalesced.get(name)
        if slot is None:
            top.coalesced[name] = [start, end - start, 1]
        else:
            slot[1] += end - start
            slot[2] += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.dur
    return {span.sid: span.dur - covered[span.sid] for span in spans}


def ancestors(spans: list[Span]) -> dict[int, list[str]]:
    """Span id -> names of its ancestors, nearest first."""
    by_id = {span.sid: span for span in spans}
    out: dict[int, list[str]] = {}
    for span in spans:
        names = []
        parent = by_id.get(span.parent)
        while parent is not None:
            names.append(parent.name)
            parent = by_id.get(parent.parent)
        out[span.sid] = names
    return out
