"""Hierarchical span tracing for the evaluation pipeline.

A *span* is a named, timed region of execution with a parent: the five
pipeline stages (generate / schedule / insert / merge / simulate) open
spans through :func:`repro.perf.timers.stage`, and the hot inner
operations (``BarrierDag.evolved_insert``, ``DominatorTree.evolved``,
the k-longest-path walk, merge worklist rounds) open spans of their own
inside them, so a collected trace is a tree that shows *where inside a
stage* the time went.  Point-in-time occurrences that have no duration
-- an engine barrier release, a path explosion -- are recorded as
*instant events*.

Like the metrics registry, tracing is **opt-in and zero-cost when off**: a
subscriber installs a :class:`SpanTracer` with :func:`collect_trace`,
and every :func:`span` block encountered while it is active records
into it.  With no subscriber :func:`span` returns the shared no-op
:data:`NOOP`, so a block costs one context-variable lookup and builds
no context manager, and the pipeline's results are bit-identical
either way (tracing is observation only; it never touches the RNG or
any decision).

Timestamps are microseconds relative to the tracer's epoch
(``time.perf_counter()`` at installation); each tracer also records a
wall-clock anchor so spans collected in worker processes of the
parallel corpus driver can be rebased onto the parent's timeline (see
:meth:`SpanTracer.adopt`).  Export to JSONL or Chrome Trace Event
Format lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import ContextManager, Iterator, Mapping

__all__ = [
    "Span",
    "TraceEvent",
    "SpanTracer",
    "collect_trace",
    "current_tracer",
    "span",
    "event",
]


@dataclass(slots=True)
class Span:
    """One completed timed region."""

    id: int
    parent: int | None  # id of the enclosing span, None at the root
    depth: int  # nesting depth (0 = root)
    name: str
    ts_us: float  # start, microseconds since the tracer's epoch
    dur_us: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": "span",
            "id": self.id,
            "parent": self.parent,
            "depth": self.depth,
            "name": self.name,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }


@dataclass(slots=True)
class TraceEvent:
    """One instant (zero-duration) occurrence."""

    name: str
    ts_us: float
    pid: int
    tid: int
    args: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": "event",
            "name": self.name,
            "ts_us": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }


class SpanTracer:
    """Collects spans and instant events for one dynamic extent.

    Not thread-safe: the pipeline is single-threaded per process, and
    worker processes of the parallel driver collect into their own
    tracer which is shipped back and :meth:`adopt`-ed by the parent.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.epoch = time.perf_counter()
        #: Wall-clock anchor of ``epoch``; lets a parent rebase spans
        #: collected in a worker process onto its own timeline.
        self.wall_epoch = time.time()
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._stack: list[tuple[int, str, float, dict]] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str, args: dict | None = None) -> int:
        """Open a span; returns its id (pass back to :meth:`close`)."""
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name, time.perf_counter(), args or {}))
        return sid

    def close(self, sid: int) -> None:
        """Close the innermost open span (must be ``sid``)."""
        now = time.perf_counter()
        top, name, start, args = self._stack.pop()
        if top != sid:  # pragma: no cover - instrumentation bug guard
            raise AssertionError(
                f"span close out of order: closing {sid}, innermost is {top}"
            )
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(
            Span(
                id=sid,
                parent=parent,
                depth=len(self._stack),
                name=name,
                ts_us=(start - self.epoch) * 1e6,
                dur_us=(now - start) * 1e6,
                pid=self.pid,
                tid=self.tid,
                args=args,
            )
        )

    def instant(self, name: str, args: dict | None = None) -> None:
        self.events.append(
            TraceEvent(
                name=name,
                ts_us=(time.perf_counter() - self.epoch) * 1e6,
                pid=self.pid,
                tid=self.tid,
                args=args or {},
            )
        )

    # -- structure queries -------------------------------------------------

    def children(self) -> dict[int | None, list[Span]]:
        """Parent-id -> child spans (key ``None`` holds the roots)."""
        tree: dict[int | None, list[Span]] = {}
        for s in self.spans:
            tree.setdefault(s.parent, []).append(s)
        return tree

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    # -- worker shipping ---------------------------------------------------

    def export_state(self) -> dict:
        """Picklable snapshot shipped from a worker process to the parent."""
        return {
            "wall_epoch": self.wall_epoch,
            "spans": [s.as_dict() for s in self.spans],
            "events": [e.as_dict() for e in self.events],
        }

    def adopt(self, state: Mapping) -> None:
        """Merge a worker tracer's :meth:`export_state` into this one.

        Worker timestamps are rebased via the wall-clock anchors and
        span ids are shifted into a fresh block so parent links stay
        intact without colliding with this tracer's own ids.
        """
        offset_us = (state["wall_epoch"] - self.wall_epoch) * 1e6
        base = self._next_id
        top = -1
        for rec in state["spans"]:
            top = max(top, rec["id"])
            parent = rec["parent"]
            self.spans.append(
                Span(
                    id=base + rec["id"],
                    parent=None if parent is None else base + parent,
                    depth=rec["depth"],
                    name=rec["name"],
                    ts_us=rec["ts_us"] + offset_us,
                    dur_us=rec["dur_us"],
                    pid=rec["pid"],
                    tid=rec["tid"],
                    args=dict(rec["args"]),
                )
            )
        for rec in state["events"]:
            self.events.append(
                TraceEvent(
                    name=rec["name"],
                    ts_us=rec["ts_us"] + offset_us,
                    pid=rec["pid"],
                    tid=rec["tid"],
                    args=dict(rec["args"]),
                )
            )
        self._next_id = base + top + 1


_tracer: ContextVar[SpanTracer | None] = ContextVar("repro_obs_tracer", default=None)


def current_tracer() -> SpanTracer | None:
    """The active tracer, or ``None``."""
    return _tracer.get()


@contextmanager
def collect_trace() -> Iterator[SpanTracer]:
    """Install a fresh tracer for the dynamic extent of the block.

    Tracers nest innermost-wins, mirroring
    :func:`repro.obs.metrics.collect_metrics`.
    """
    tracer = SpanTracer()
    token = _tracer.set(tracer)
    try:
        yield tracer
    finally:
        _tracer.reset(token)


#: The context manager every idle :func:`span` (and
#: :func:`repro.perf.timers.stage`) returns: shared, reentrant, free.
NOOP: ContextManager[None] = nullcontext()


def span(name: str, **args) -> ContextManager[None]:
    """Record the block as a span under the active tracer.

    Without one the shared :data:`NOOP` comes back, so an idle span
    costs one context-variable lookup and builds no context manager.
    """
    tracer = current_tracer()
    if tracer is None:
        return NOOP
    return _recorded(tracer, name, args)


@contextmanager
def _recorded(tracer: SpanTracer, name: str, args: dict) -> Iterator[None]:
    sid = tracer.open(name, args)
    try:
        yield
    finally:
        tracer.close(sid)


def event(name: str, **args) -> None:
    """Record an instant event under the active tracer (no-op without one)."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.instant(name, args)
