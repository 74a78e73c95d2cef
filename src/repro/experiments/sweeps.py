"""Generic corpus runner and parameter sweeps.

One *experiment point* is (generator parameters, scheduler parameters,
corpus size, master seed).  :func:`run_point` compiles and schedules the
whole corpus for a point and reduces it to
:class:`~repro.metrics.stats.CorpusStats`; :func:`sweep` maps that over a
parameter axis.  Everything is deterministic in the master seed, matching
the paper's method of averaging 100 generated benchmarks per point.

Every entry point takes ``jobs``, the worker-process count for the
corpus (``None`` consults the ``REPRO_JOBS`` environment variable, ``0``
means all cores; see ``docs/performance.md``).  The parallel path is
*bit-identical* to serial -- per-case seeds are derived exactly as in
the serial loop -- and falls back to serial when ``jobs <= 1``, the
platform lacks ``fork``, or the ``accept`` filter cannot cross process
boundaries.  Every point is computed from its seed on each call: a
rerun costs what the first run cost and always reflects the current
code.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from repro.core.scheduler import ScheduleResult, SchedulerConfig
from repro.ir.ops import DEFAULT_TIMING, TimingModel
from repro.metrics.stats import CorpusStats, aggregate_results
from repro.perf.parallel import chunk_runner, resolve_jobs
from repro.synth.corpus import BenchmarkCase
from repro.synth.generator import GeneratorConfig

__all__ = ["ExperimentPoint", "run_corpus", "run_point", "sweep"]

#: Corpus size per parameter point; the paper uses 100.
DEFAULT_COUNT = 100

#: Attempts per requested case before a corpus filter counts as
#: exhausted (the budget of :func:`repro.synth.corpus.generate_cases`).
MAX_ATTEMPTS_FACTOR = 50


@dataclass(frozen=True)
class ExperimentPoint:
    """One fully specified parameter point of the evaluation."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    timing: TimingModel = DEFAULT_TIMING
    count: int = DEFAULT_COUNT
    master_seed: int = 0

    def with_(self, **changes) -> "ExperimentPoint":
        return replace(self, **changes)


def run_corpus(
    point: ExperimentPoint,
    accept: Callable[[BenchmarkCase], bool] | None = None,
    jobs: int | None = None,
    compact: bool = False,
) -> list[ScheduleResult]:
    """Compile and schedule every benchmark of a point; return the results.

    Each case is scheduled with the point's scheduler config, seeded per
    case so random tie-breaking is reproducible yet varies across the
    corpus.  The attempt seeds are drawn once, in order, and run in
    chunks through :func:`repro.perf.parallel.run_chunk` (vectorized
    generation, positional ``accept`` filter, batched scheduling):
    in-process with ``jobs == 1``, on a fork pool with ``jobs > 1``.
    Every path returns the same result sequence.  A filter that accepts
    fewer than ``count`` cases in ``50 * count`` attempts raises
    ``RuntimeError``, as :func:`repro.synth.corpus.generate_cases` does.

    ``compact=True`` lets pool workers return
    :class:`~repro.perf.parallel.CompactResult` rows, which support
    aggregation and digests but carry no ``Schedule`` graph.  Callers
    that read ``result.schedule`` or ``result.resolutions`` must leave
    it off.
    """
    count = point.count
    limit = max(1, count) * MAX_ATTEMPTS_FACTOR
    seed_stream = random.Random(point.master_seed)
    results: list[ScheduleResult] = []
    pending: deque = deque()  # (seeds drawn, wait) per chunk, in order
    attempts = in_flight = 0
    with chunk_runner(point, accept, resolve_jobs(jobs), compact) as (
        submit,
        chunk,
        window,
    ):
        while len(results) < count:
            # Never more seeds in flight than cases still needed.
            while len(pending) < window:
                take = min(
                    chunk, count - len(results) - in_flight, limit - attempts
                )
                if take <= 0:
                    break
                seeds = [seed_stream.getrandbits(48) for _ in range(take)]
                attempts += take
                in_flight += take
                pending.append((take, submit(seeds)))
            if not pending:
                raise RuntimeError(
                    f"corpus filter accepted only {len(results)}/{count} "
                    f"cases after {attempts} attempts"
                )
            take, wait = pending.popleft()
            in_flight -= take
            results.extend(wait())
    return results


def run_point(
    point: ExperimentPoint,
    accept: Callable[[BenchmarkCase], bool] | None = None,
    jobs: int | None = None,
) -> CorpusStats:
    """:func:`run_corpus` reduced to corpus statistics.

    Aggregation reads nothing a compact result lacks, so pool workers
    may ship compact rows.
    """
    return aggregate_results(run_corpus(point, accept, jobs=jobs, compact=True))


def sweep(
    base: ExperimentPoint,
    axis: str,
    values: Iterable[object],
    jobs: int | None = None,
) -> list[tuple[object, CorpusStats]]:
    """Vary one parameter along ``values`` and run each point.

    ``axis`` is a dotted path into the point, e.g. ``"generator.n_statements"``,
    ``"scheduler.n_pes"``, ``"scheduler.lookahead"``.
    """
    results: list[tuple[object, CorpusStats]] = []
    for value in values:
        results.append(
            (value, run_point(_set_axis(base, axis, value), jobs=jobs))
        )
    return results


def _set_axis(point: ExperimentPoint, axis: str, value: object) -> ExperimentPoint:
    parts = axis.split(".")
    if len(parts) == 1:
        return point.with_(**{parts[0]: value})
    if len(parts) == 2:
        head, leaf = parts
        sub = getattr(point, head)
        return point.with_(**{head: replace(sub, **{leaf: value})})
    raise ValueError(f"unsupported axis {axis!r}")


def sweep_rows(
    results: Sequence[tuple[object, CorpusStats]], axis_label: str
) -> str:
    """Render a sweep as the fixed-width table used by the benchmarks."""
    lines = [
        f"{axis_label:>10}  {'barrier':>8}  {'serial':>8}  {'static':>8}  "
        f"{'no-rt-sync':>10}  {'syncs':>7}  {'barriers':>8}"
    ]
    for value, stats in results:
        lines.append(
            f"{value!s:>10}  {stats.barrier.mean:8.1%}  {stats.serialized.mean:8.1%}  "
            f"{stats.static.mean:8.1%}  {stats.no_runtime_sync.mean:10.1%}  "
            f"{stats.mean_implied_syncs:7.1f}  {stats.mean_barriers:8.2f}"
        )
    return "\n".join(lines)
