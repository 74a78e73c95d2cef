"""Resource accounting for the pipeline: timings, memory, GC, flame graphs.

The metrics registry (:mod:`repro.obs.metrics`) counts *how often*
things happen; this module records *how long* and *how much memory*
into the same registry, under entry names it owns, and derives a perf
record's ``profile`` block back from them (:func:`profile_block`):

* **stage timings** -- wall and CPU seconds per pipeline stage
  (generate / schedule / insert / merge / simulate), recorded by
  :func:`repro.perf.timers.stage` as the histograms
  ``prof.stage.<stage>.wall_s`` and ``.cpu_s``;
* **kernel timings** -- the same per ``<kernel>.<backend>``
  (``prof.kernel.<kernel>.<backend>.wall_s`` / ``.cpu_s``), recorded at
  the :func:`repro.kernels.timed` dispatch boundary, so a perf report
  can say "``batch.numpy`` cost 4.1s over 35 calls";
* **memory** -- peak RSS (:func:`rss_bytes`, from ``ru_maxrss``;
  histogram ``prof.peak_rss``, whose max is the peak), sampled by
  :func:`sample_rss` once where a registry's work ends (a pool worker
  before it ships its registry, a report before it derives the
  profile), and explicit byte accounts for the big allocations, padded
  batch tensors and the vectorized generator's drawn arrays (counters
  ``prof.bytes.<account>``, fed by :func:`add_bytes`);
* **GC pauses** -- one ``prof.gc.pause_s`` observation per collection
  and the objects collected (counter ``prof.gc.collected``), captured
  by :func:`track_gc` via ``gc.callbacks`` inside
  :func:`repro.perf.gctune.batched_gc`;
* **folded stacks** -- :func:`folded_stacks` collapses an active span
  tracer's tree into Brendan Gregg's folded-stack text (one
  ``frame;frame count`` line per unique stack, counts in integer
  microseconds of *self* time), importable by speedscope and
  ``flamegraph.pl`` alike; ``--profile FILE`` on the CLI writes it.

Everything records into the active registry (``collect_metrics``) and
nothing without one.  Pool workers ship these entries home inside
their registry, whose merge sums counts and totals and max-merges
maxima, so the derived block does not depend on worker completion
order.  Profiling is observation only:
``results_digest`` is bit-identical with a registry installed or not.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.spans import NOOP, SpanTracer

__all__ = [
    "Timer",
    "UNTIMED",
    "add_bytes",
    "folded_stacks",
    "metrics_block",
    "profile_block",
    "render_profile",
    "rss_bytes",
    "sample_rss",
    "track_gc",
    "write_folded",
]

#: Every registry entry this module owns starts with this prefix.
PREFIX = "prof."
#: ``<STAGE><stage>.wall_s`` / ``.cpu_s`` histograms.
STAGE = "prof.stage."
#: ``<KERNEL><kernel>.<backend>.wall_s`` / ``.cpu_s`` histograms.
KERNEL = "prof.kernel."
#: ``<BYTES><account>`` counters: explicit allocation footprints.
BYTES = "prof.bytes."
#: Histogram of peak-RSS samples; its max is the extent's peak.
PEAK_RSS = "prof.peak_rss"
#: Histogram with one observation per cyclic collection.
GC_PAUSE = "prof.gc.pause_s"
#: Counter of objects the observed collections freed.
GC_COLLECTED = "prof.gc.collected"

_WALL = ".wall_s"
_CPU = ".cpu_s"


def rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    so the accounting is platform-independent.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def sample_rss(reg: MetricsRegistry) -> int:
    """Observe this process's peak RSS into ``reg``; returns it."""
    peak = rss_bytes()
    reg.observe(PEAK_RSS, peak)
    return peak


def add_bytes(account: str, n: int) -> None:
    """Add ``n`` bytes to a named byte account on the active registry
    (no-op without one)."""
    reg = current_registry()
    if reg is not None:
        reg.inc(BYTES + account, int(n))


class Timer:
    """Times its block's wall and CPU seconds into the histograms
    ``<key>.wall_s`` and ``<key>.cpu_s`` of a registry.

    :func:`repro.perf.timers.stage` (key ``STAGE + stage``) and
    :func:`repro.kernels.timed` (key ``KERNEL + kernel.backend``) are
    its two users.
    """

    __slots__ = ("_reg", "_key", "_wall0", "_cpu0")

    def __init__(self, reg: MetricsRegistry, key: str) -> None:
        self._reg = reg
        self._key = key

    def __enter__(self) -> None:
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._reg.observe(self._key + _WALL, wall)
        self._reg.observe(self._key + _CPU, cpu)
        return False


#: Shared no-op timer, so a registry-off path allocates nothing per call
#: (the same object as an idle span).
UNTIMED = NOOP


@contextmanager
def track_gc() -> Iterator[None]:
    """Record cyclic-collector pauses into the active registry.

    Registers a ``gc.callbacks`` hook for the extent; each collection's
    start/stop pair contributes one pause.  No-op without a registry.
    """
    reg = current_registry()
    if reg is None:
        yield
        return
    start = [0.0]

    def hook(phase: str, info: Mapping) -> None:
        if phase == "start":
            start[0] = time.perf_counter()
        else:
            reg.observe(GC_PAUSE, time.perf_counter() - start[0])
            reg.inc(GC_COLLECTED, int(info.get("collected", 0)))

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


# -- the derived blocks ----------------------------------------------------


def _timings(reg: MetricsRegistry, prefix: str) -> dict:
    """``{key: {count, wall_s, cpu_s, max_s}}`` from the ``<prefix><key>``
    wall and CPU histograms, sorted by key."""
    table = {}
    for name, wall in reg.histograms.items():
        if name.startswith(prefix) and name.endswith(_WALL):
            key = name[len(prefix) : -len(_WALL)]
            table[key] = {
                "count": wall.count,
                "wall_s": wall.total,
                "cpu_s": reg.histograms[prefix + key + _CPU].total,
                "max_s": wall.max,
            }
    return dict(sorted(table.items()))


def _counts(reg: MetricsRegistry, prefix: str) -> dict:
    return {
        name[len(prefix) :]: n
        for name, n in sorted(reg.counters.items())
        if name.startswith(prefix)
    }


def profile_block(reg: MetricsRegistry) -> dict:
    """A perf record's ``profile`` block from a registry's entries.

    ``stages`` and ``kernels`` map each key to its ``count`` / ``wall_s``
    / ``cpu_s`` / ``max_s``; ``bytes`` maps account names to bytes;
    ``peak_rss`` is the largest sample; ``gc`` holds ``pauses``,
    ``pause_s`` and ``collected``.  An empty registry gives empty tables
    and zeros.
    """
    peak = reg.histograms.get(PEAK_RSS)
    pauses = reg.histograms.get(GC_PAUSE)
    return {
        "stages": _timings(reg, STAGE),
        "kernels": _timings(reg, KERNEL),
        "bytes": _counts(reg, BYTES),
        "peak_rss": int(peak.max) if peak is not None else 0,
        "gc": {
            "pauses": pauses.count if pauses is not None else 0,
            "pause_s": pauses.total if pauses is not None else 0.0,
            "collected": reg.counter(GC_COLLECTED),
        },
    }


def metrics_block(reg: MetricsRegistry) -> dict:
    """The registry's :meth:`~MetricsRegistry.as_dict` form without the
    entries :func:`profile_block` reports."""
    return {
        kind: {
            name: value
            for name, value in table.items()
            if not name.startswith(PREFIX)
        }
        for kind, table in reg.as_dict().items()
    }


def render_profile(profile: Mapping, top: int = 8) -> str:
    """Human summary of a :func:`profile_block`: headline, the ``top``
    kernels by wall time, memory."""
    gc_block = profile["gc"]
    lines = [
        f"profile: peak rss {_fmt_bytes(profile['peak_rss'])}, "
        f"gc {gc_block['pauses']} pauses {gc_block['pause_s']:.3f}s "
        f"({gc_block['collected']} collected)"
    ]
    ranked = sorted(
        profile["kernels"].items(), key=lambda kv: kv[1]["wall_s"], reverse=True
    )
    for key, stat in ranked[:top]:
        lines.append(
            f"  kernel {key:<18} {stat['count']:>8} calls  "
            f"wall {stat['wall_s']:.3f}s  cpu {stat['cpu_s']:.3f}s  "
            f"max {stat['max_s'] * 1e3:.3f}ms"
        )
    if profile["bytes"]:
        accounts = "  ".join(
            f"{key} {_fmt_bytes(n)}" for key, n in sorted(profile["bytes"].items())
        )
        lines.append(f"  bytes: {accounts}")
    return "\n".join(lines)


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns


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
