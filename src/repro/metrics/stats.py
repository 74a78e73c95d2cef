"""Corpus-level aggregation of scheduling results.

The paper's evaluation averages 100 synthetic benchmarks per parameter
point; these helpers reduce a batch of
:class:`~repro.core.scheduler.ScheduleResult` objects to the means (and
dispersion) that back every figure in section 5.  numpy is used for the
bulk reductions, per the HPC guides' advice to vectorize aggregation
rather than instruction-level logic.  It is imported inside the two
functions that build arrays, so a run that schedules and simulates a
block without aggregating a corpus never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.scheduler import ScheduleResult
from repro.metrics.fractions import SyncFractions, fractions_of

__all__ = [
    "FractionAggregate",
    "CorpusStats",
    "aggregate_fractions",
    "aggregate_results",
]


@dataclass(frozen=True, slots=True)
class FractionAggregate:
    """Mean / std / extremes of one fraction over a corpus."""

    mean: float
    std: float
    min: float
    max: float

    @staticmethod
    def of(values: Sequence[float]) -> "FractionAggregate":
        import numpy as np

        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return FractionAggregate(0.0, 0.0, 0.0, 0.0)
        return FractionAggregate(
            float(arr.mean()),
            float(arr.std(ddof=0)),
            float(arr.min()),
            float(arr.max()),
        )

    def render(self) -> str:
        return f"{self.mean:6.1%} +/-{self.std:5.1%} [{self.min:5.1%},{self.max:5.1%}]"


@dataclass(frozen=True)
class CorpusStats:
    """Everything the section 5 experiments report for one parameter point."""

    n_benchmarks: int
    barrier: FractionAggregate
    serialized: FractionAggregate
    static: FractionAggregate
    no_runtime_sync: FractionAggregate
    mean_implied_syncs: float
    mean_barriers: float
    mean_merges: float
    mean_makespan_min: float
    mean_makespan_max: float
    mean_processors_used: float
    total_repairs: int
    secondary_fraction: float
    per_benchmark: tuple[SyncFractions, ...] = ()

    def render(self) -> str:
        return (
            f"n={self.n_benchmarks:<4d} barrier {self.barrier.render()}  "
            f"serial {self.serialized.render()}  static {self.static.render()}"
        )


def aggregate_fractions(fractions: Iterable[SyncFractions]) -> tuple[
    FractionAggregate, FractionAggregate, FractionAggregate, FractionAggregate
]:
    """(barrier, serialized, static, no-runtime-sync) aggregates."""
    fr = list(fractions)
    return (
        FractionAggregate.of([f.barrier for f in fr]),
        FractionAggregate.of([f.serialized for f in fr]),
        FractionAggregate.of([f.static for f in fr]),
        FractionAggregate.of([f.no_runtime_sync for f in fr]),
    )


def aggregate_results(results: Sequence[ScheduleResult]) -> CorpusStats:
    """Reduce a batch of schedules to one corpus-level statistics record."""
    import numpy as np

    fr = [fractions_of(r) for r in results]
    barrier, serialized, static, no_rt = aggregate_fractions(fr)
    n = len(results)
    if n == 0:
        return CorpusStats(
            0, barrier, serialized, static, no_rt,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, (),
        )
    secondary_total = sum(r.counts.secondary_resolutions for r in results)
    resolved_total = sum(
        r.counts.path_edges + r.counts.timing_edges + r.counts.barrier_edges
        for r in results
    )
    # ``r.makespan`` recomputes the schedule's makespan: read it once.
    makespans = [r.makespan for r in results]
    return CorpusStats(
        n_benchmarks=n,
        barrier=barrier,
        serialized=serialized,
        static=static,
        no_runtime_sync=no_rt,
        mean_implied_syncs=float(np.mean([r.counts.total_edges for r in results])),
        mean_barriers=float(np.mean([r.counts.barriers_final for r in results])),
        mean_merges=float(np.mean([r.counts.merges for r in results])),
        mean_makespan_min=float(np.mean([m.lo for m in makespans])),
        mean_makespan_max=float(np.mean([m.hi for m in makespans])),
        mean_processors_used=float(
            np.mean([r.schedule.used_processors() for r in results])
        ),
        total_repairs=sum(r.counts.repairs for r in results),
        secondary_fraction=(secondary_total / resolved_total) if resolved_total else 0.0,
        per_benchmark=tuple(fr),
    )
