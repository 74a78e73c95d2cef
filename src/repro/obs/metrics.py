"""Counters and histograms for the evaluation pipeline.

A :class:`MetricsRegistry` holds named monotonic **counters** (barriers
inserted, merge verdicts by kind, incremental fast-path vs scratch
rebuilds, path explosions, ...) and streaming **histograms**
(count/total/min/max summaries of ready-list sizes, fire-cone sizes,
engine release widths, ...).  It is the one accumulator of a run's
numbers: the stage and kernel timings, memory and GC accounts of
:mod:`repro.obs.prof` are ``prof.*`` entries of the same registry.

The lifecycle mirrors the span tracer: a subscriber installs a
registry with :func:`collect_metrics` for a dynamic extent;
instrumentation points call the module-level :func:`inc` /
:func:`observe` helpers, which are no-ops without a subscriber; and
when the parent has a registry active, each worker of the parallel
driver collects into its own and ships it back as a plain dict, folded
into the parent with :func:`add_to_current` /
:meth:`MetricsRegistry.merge_from`.  The merge is associative and
commutative, so the parent's totals do not depend on worker completion
order.

Metric names are dotted lowercase paths (``merge.verdict.cached``,
``views.dag.evolved``); :mod:`docs/observability.md` tables every name
the pipeline emits.  Recording never influences results -- the same
bit-identical-digest contract as the span tracer.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.obs.spans import DISABLED

__all__ = [
    "HistogramStat",
    "MetricsRegistry",
    "collect_metrics",
    "current_registry",
    "inc",
    "observe",
    "add_to_current",
]


@dataclass(slots=True)
class HistogramStat:
    """Streaming summary of an observed distribution."""

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        # Comparisons, not min()/max(): this runs per timed block.
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_from(self, other: "HistogramStat") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = other.min if self.min is None else min(self.min, other.min)
        self.max = other.max if self.max is None else max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total, "min": self.min, "max": self.max}

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramStat":
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            min=data["min"],
            max=data["max"],
        )


class MetricsRegistry:
    """Named counters and histograms for one dynamic extent."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, HistogramStat] = {}

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        stat = self.histograms.get(name)
        if stat is None:
            stat = self.histograms[name] = HistogramStat()
        stat.observe(value)

    def counter(self, name: str) -> int:
        """Counter value (0 if never incremented)."""
        return self.counters.get(name, 0)

    def merge_from(self, other: "MetricsRegistry | Mapping") -> None:
        """Fold another registry (or its :meth:`as_dict` form) into this
        one.  Associative and commutative."""
        if isinstance(other, Mapping):
            other = MetricsRegistry.from_dict(other)
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, stat in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramStat()
            mine.merge_from(stat)

    def as_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: stat.as_dict()
                for name, stat in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        reg = cls()
        reg.counters.update(data.get("counters", {}))
        for name, stat in data.get("histograms", {}).items():
            reg.histograms[name] = HistogramStat.from_dict(stat)
        return reg


_registry: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_metrics", default=None
)


def current_registry() -> MetricsRegistry | None:
    """The active registry, or ``None`` (always ``None`` when
    ``REPRO_OBS_DISABLE=1``)."""
    if DISABLED:
        return None
    return _registry.get()


@contextmanager
def collect_metrics() -> Iterator[MetricsRegistry]:
    """Install a fresh registry for the dynamic extent of the block
    (innermost-wins nesting, like ``collect_trace``)."""
    reg = MetricsRegistry()
    token = _registry.set(reg)
    try:
        yield reg
    finally:
        _registry.reset(token)


def inc(name: str, n: int = 1) -> None:
    """Bump a counter on the active registry (no-op without one)."""
    reg = current_registry()
    if reg is not None:
        reg.inc(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry (no-op
    without one)."""
    reg = current_registry()
    if reg is not None:
        reg.observe(name, value)


def add_to_current(data: "MetricsRegistry | Mapping") -> None:
    """Fold a shipped registry into the active one, if any.

    The parallel corpus driver calls this in the parent with each worker
    chunk's metrics dict.
    """
    reg = current_registry()
    if reg is not None:
        reg.merge_from(data)
