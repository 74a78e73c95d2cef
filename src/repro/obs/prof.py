"""Continuous profiling and resource accounting for the pipeline.

The metrics registry (:mod:`repro.obs.metrics`) counts *how often* each
kernel backend ran; this module records *how long* and *how much
memory*.  A :class:`Profiler` accumulates five resource families:

* **stage timings** -- per pipeline stage (generate / schedule / insert
  / merge / simulate) wall/CPU summaries, recorded by
  :func:`repro.perf.timers.stage`; ``repro-sbm perf`` derives its
  record's ``stages`` block from them;
* **kernel timings** -- per ``<kernel>.<backend>`` wall/CPU summaries,
  recorded at the :func:`repro.kernels.timed` dispatch boundary, so a
  perf report can say "``batch.numpy`` cost 4.1s over 35 calls";
* **memory** -- peak RSS (:func:`rss_bytes`, from ``ru_maxrss``),
  per-stage RSS growth sampled by :func:`repro.perf.timers.stage`, and
  explicit byte accounts for the big allocations (padded batch
  tensors, the vectorized generator's drawn arrays);
* **GC pauses** -- count, total pause time, and objects collected,
  captured by :func:`track_gc` via ``gc.callbacks`` inside
  :func:`repro.perf.gctune.batched_gc`;
* **folded stacks** -- :func:`folded_stacks` collapses an active span
  tracer's tree into Brendan Gregg's folded-stack text (one
  ``frame;frame count`` line per unique stack, counts in integer
  microseconds of *self* time), importable by speedscope and
  ``flamegraph.pl`` alike; ``--profile FILE`` on the CLI writes it.

The lifecycle mirrors the registry exactly: a subscriber installs a
profiler with :func:`collect_profile` for a dynamic extent
(innermost-wins nesting); instrumentation points consult
:func:`current_profiler`, which is ``None`` without a subscriber or
under ``REPRO_OBS_DISABLE=1``; and profilers collected in worker
processes ship back as :meth:`Profiler.as_dict` payloads folded into
the parent with :func:`add_to_current`.  Every merge is associative
and commutative (sums, or max for peaks), so parent totals do not
depend on worker completion order.  Profiling is observation only:
``results_digest`` is bit-identical with a profiler installed or not.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.obs.spans import DISABLED, SpanTracer

__all__ = [
    "KernelStat",
    "Profiler",
    "Timer",
    "UNTIMED",
    "add_to_current",
    "collect_profile",
    "current_profiler",
    "folded_stacks",
    "rss_bytes",
    "track_gc",
    "write_folded",
]


def rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    so the accounting is platform-independent.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


@dataclass(slots=True)
class KernelStat:
    """Streaming wall/CPU summary of one ``<kernel>.<backend>`` pair or
    one pipeline stage."""

    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_s: float = 0.0

    def observe(self, wall_s: float, cpu_s: float) -> None:
        self.count += 1
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        if wall_s > self.max_s:
            self.max_s = wall_s

    def merge_from(self, other: "KernelStat") -> None:
        self.count += other.count
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s

    @property
    def mean_s(self) -> float:
        return self.wall_s / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "KernelStat":
        return cls(
            count=int(data.get("count", 0)),
            wall_s=float(data.get("wall_s", 0.0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
            max_s=float(data.get("max_s", 0.0)),
        )


class Profiler:
    """Resource accounts for one dynamic extent.

    All fields merge associatively and commutatively (:meth:`merge_from`
    sums, except ``peak_rss`` which max-merges), so worker profiles can
    be folded into a parent in any completion order.
    """

    def __init__(self) -> None:
        #: Pipeline stage name -> timing summary.  Stages nest (``merge``
        #: inside ``insert`` inside ``schedule``), so they do not sum to
        #: wall time.
        self.stages: dict[str, KernelStat] = {}
        #: ``<kernel>.<backend>`` -> timing summary.
        self.kernels: dict[str, KernelStat] = {}
        #: Stage name -> summed positive peak-RSS growth (bytes) across
        #: that stage's blocks.  ``ru_maxrss`` is a high-water mark, so
        #: a stage is only charged when it pushed the peak higher.
        self.stage_rss: dict[str, int] = {}
        #: Named byte accounts (``batch.tensors``, ``genvec.drawn``) --
        #: explicit footprints of the allocations RSS deltas attribute
        #: poorly.
        self.bytes: dict[str, int] = {}
        #: Max peak RSS observed across this extent and merged workers.
        self.peak_rss: int = 0
        self.gc_pauses: int = 0
        self.gc_pause_s: float = 0.0
        self.gc_collected: int = 0

    # -- recording ---------------------------------------------------------

    def record_stage(self, name: str, wall_s: float, cpu_s: float) -> None:
        _observe(self.stages, name, wall_s, cpu_s)

    def record_kernel(self, key: str, wall_s: float, cpu_s: float) -> None:
        _observe(self.kernels, key, wall_s, cpu_s)

    def record_stage_rss(self, stage: str, delta: int) -> None:
        if delta > 0:
            self.stage_rss[stage] = self.stage_rss.get(stage, 0) + delta

    def add_bytes(self, key: str, n: int) -> None:
        self.bytes[key] = self.bytes.get(key, 0) + int(n)

    def record_gc_pause(self, pause_s: float, collected: int) -> None:
        self.gc_pauses += 1
        self.gc_pause_s += pause_s
        self.gc_collected += collected

    def sample_rss(self) -> int:
        """Fold the current peak RSS into the account; returns it."""
        peak = rss_bytes()
        if peak > self.peak_rss:
            self.peak_rss = peak
        return peak

    # -- merging -----------------------------------------------------------

    def merge_from(self, other: "Profiler | Mapping") -> None:
        """Fold another profiler (or its :meth:`as_dict` form) into this
        one.  Associative and commutative."""
        if isinstance(other, Mapping):
            other = Profiler.from_dict(other)
        for mine, theirs in (
            (self.stages, other.stages),
            (self.kernels, other.kernels),
        ):
            for key, stat in theirs.items():
                if key not in mine:
                    mine[key] = KernelStat()
                mine[key].merge_from(stat)
        for stage, delta in other.stage_rss.items():
            self.stage_rss[stage] = self.stage_rss.get(stage, 0) + delta
        for key, n in other.bytes.items():
            self.bytes[key] = self.bytes.get(key, 0) + n
        if other.peak_rss > self.peak_rss:
            self.peak_rss = other.peak_rss
        self.gc_pauses += other.gc_pauses
        self.gc_pause_s += other.gc_pause_s
        self.gc_collected += other.gc_collected

    def as_dict(self) -> dict:
        return {
            "stages": {
                name: stat.as_dict()
                for name, stat in sorted(self.stages.items())
            },
            "kernels": {
                key: stat.as_dict()
                for key, stat in sorted(self.kernels.items())
            },
            "stage_rss": dict(sorted(self.stage_rss.items())),
            "bytes": dict(sorted(self.bytes.items())),
            "peak_rss": self.peak_rss,
            "gc": {
                "pauses": self.gc_pauses,
                "pause_s": self.gc_pause_s,
                "collected": self.gc_collected,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Profiler":
        prof = cls()
        for name, stat in data.get("stages", {}).items():
            prof.stages[name] = KernelStat.from_dict(stat)
        for key, stat in data.get("kernels", {}).items():
            prof.kernels[key] = KernelStat.from_dict(stat)
        for stage, delta in data.get("stage_rss", {}).items():
            prof.stage_rss[stage] = int(delta)
        for key, n in data.get("bytes", {}).items():
            prof.bytes[key] = int(n)
        prof.peak_rss = int(data.get("peak_rss", 0))
        gc_block = data.get("gc", {})
        prof.gc_pauses = int(gc_block.get("pauses", 0))
        prof.gc_pause_s = float(gc_block.get("pause_s", 0.0))
        prof.gc_collected = int(gc_block.get("collected", 0))
        return prof

    # -- reporting ---------------------------------------------------------

    def render(self, top: int = 8) -> str:
        """Human summary: headline, top kernels by wall time, memory."""
        lines = [
            f"profile: peak rss {_fmt_bytes(self.peak_rss)}, "
            f"gc {self.gc_pauses} pauses {self.gc_pause_s:.3f}s "
            f"({self.gc_collected} collected)"
        ]
        ranked = sorted(
            self.kernels.items(), key=lambda kv: kv[1].wall_s, reverse=True
        )
        for key, stat in ranked[:top]:
            lines.append(
                f"  kernel {key:<18} {stat.count:>8} calls  "
                f"wall {stat.wall_s:.3f}s  cpu {stat.cpu_s:.3f}s  "
                f"max {stat.max_s * 1e3:.3f}ms"
            )
        if self.stage_rss:
            growth = "  ".join(
                f"{stage} +{_fmt_bytes(delta)}"
                for stage, delta in sorted(self.stage_rss.items())
            )
            lines.append(f"  rss growth: {growth}")
        if self.bytes:
            accounts = "  ".join(
                f"{key} {_fmt_bytes(n)}"
                for key, n in sorted(self.bytes.items())
            )
            lines.append(f"  bytes: {accounts}")
        return "\n".join(lines)


def _observe(
    table: dict[str, KernelStat], key: str, wall_s: float, cpu_s: float
) -> None:
    stat = table.get(key)
    if stat is None:
        stat = table[key] = KernelStat()
    stat.observe(wall_s, cpu_s)


class Timer:
    """Times its block's wall and CPU seconds into a profiler table.

    ``record`` is :meth:`Profiler.record_stage` or
    :meth:`Profiler.record_kernel`; :func:`repro.perf.timers.stage` and
    :func:`repro.kernels.timed` are its two users.
    """

    __slots__ = ("_record", "_key", "_wall0", "_cpu0")

    def __init__(
        self, record: Callable[[str, float, float], None], key: str
    ) -> None:
        self._record = record
        self._key = key

    def __enter__(self) -> None:
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        self._record(self._key, wall, time.process_time() - self._cpu0)
        return False


#: Shared no-op timer, so a profiler-off path allocates nothing per call.
UNTIMED = nullcontext()


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns


_profiler: ContextVar[Profiler | None] = ContextVar(
    "repro_obs_profiler", default=None
)


def current_profiler() -> Profiler | None:
    """The active profiler, or ``None`` (always ``None`` when
    ``REPRO_OBS_DISABLE=1``)."""
    if DISABLED:
        return None
    return _profiler.get()


@contextmanager
def collect_profile() -> Iterator[Profiler]:
    """Install a fresh profiler for the dynamic extent of the block
    (innermost-wins nesting, like ``collect_metrics``)."""
    prof = Profiler()
    token = _profiler.set(prof)
    try:
        yield prof
    finally:
        if not DISABLED:
            prof.sample_rss()  # close the extent's peak-RSS account
        _profiler.reset(token)


def add_to_current(data: "Profiler | Mapping") -> None:
    """Fold a shipped profile into the active one, if any.

    The corpus driver calls this in the parent with each worker chunk's
    profile dict, exactly like ``metrics.add_to_current``.
    """
    prof = current_profiler()
    if prof is not None:
        prof.merge_from(data)


@contextmanager
def track_gc() -> Iterator[None]:
    """Record cyclic-collector pauses into the active profiler.

    Registers a ``gc.callbacks`` hook for the extent; each collection's
    start/stop pair contributes one pause.  No-op without a profiler.
    """
    prof = current_profiler()
    if prof is None:
        yield
        return
    start = [0.0]

    def hook(phase: str, info: Mapping) -> None:
        if phase == "start":
            start[0] = time.perf_counter()
        else:
            prof.record_gc_pause(
                time.perf_counter() - start[0], int(info.get("collected", 0))
            )

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


# -- folded stacks ---------------------------------------------------------


def folded_stacks(tracer: SpanTracer) -> list[str]:
    """Collapse a span tree into folded-stack lines.

    One line per unique root-to-leaf name path, ``frame;frame count``,
    where the count is the path's **self time** in integer microseconds
    (a span's duration minus its children's) -- the format
    ``flamegraph.pl`` and speedscope import directly.  Spans adopted
    from worker processes are prefixed ``worker:<pid>`` so parent and
    worker time stay distinguishable in the flame graph.
    """
    children_dur: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children_dur[s.parent] = children_dur.get(s.parent, 0.0) + s.dur_us
    by_id = {s.id: s for s in tracer.spans}
    totals: dict[str, float] = {}
    for s in tracer.spans:
        self_us = s.dur_us - children_dur.get(s.id, 0.0)
        if self_us <= 0.0:
            continue
        names = [s.name]
        parent = s.parent
        while parent is not None:
            p = by_id.get(parent)
            if p is None:  # pragma: no cover - defensive against truncation
                break
            names.append(p.name)
            parent = p.parent
        names.reverse()
        if s.pid != tracer.pid:
            names.insert(0, f"worker:{s.pid}")
        stack = ";".join(names)
        totals[stack] = totals.get(stack, 0.0) + self_us
    return [
        f"{stack} {max(1, round(us))}" for stack, us in sorted(totals.items())
    ]


def write_folded(tracer: SpanTracer, path: str | Path) -> Path:
    """Write :func:`folded_stacks` to ``path`` (one stack per line)."""
    path = Path(path)
    lines = folded_stacks(tracer)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path
