"""Schedule quality reports.

:func:`analyze_schedule` condenses a finished
:class:`~repro.core.scheduler.ScheduleResult` into the numbers an
architect would ask about beyond the paper's three fractions:

* **barrier statistics** -- how many barriers, how wide (the SBM merging
  discussion in section 4.4.3 is all about barrier width), how their
  fire windows are spread over the schedule;
* **processor utilization** -- worst-case busy time per processor over
  the worst-case makespan, plus the load-balance spread the step [2]
  random tie-breaking is meant to help;
* **resolution breakdown** -- the per-kind edge counts with the
  secondary-effect share (figures 7/8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import ScheduleResult
from repro.metrics.fractions import SyncFractions, fractions_of
from repro.timing import Interval

__all__ = ["BarrierStats", "UtilizationStats", "ScheduleReport", "analyze_schedule"]


@dataclass(frozen=True)
class BarrierStats:
    """Shape of the schedule's barrier population (initial excluded)."""

    count: int
    mean_width: float
    max_width: int
    widths: tuple[int, ...]
    fire_windows: tuple[Interval, ...]
    merged_count: int  # barriers that absorbed at least one other

    @property
    def merge_share(self) -> float:
        return self.merged_count / self.count if self.count else 0.0


@dataclass(frozen=True)
class UtilizationStats:
    """Worst-case processor occupancy."""

    per_pe_busy: tuple[int, ...]  # sum of max latencies per processor
    makespan: Interval
    processors_used: int

    @property
    def utilization(self) -> float:
        """Busy time over capacity, counting only processors in use."""
        if not self.processors_used or self.makespan.hi == 0:
            return 0.0
        return sum(self.per_pe_busy) / (self.processors_used * self.makespan.hi)

    @property
    def imbalance(self) -> float:
        """Max busy / mean busy over used processors (1.0 = perfect)."""
        used = [b for b in self.per_pe_busy if b > 0]
        if not used:
            return 0.0
        return max(used) / (sum(used) / len(used))


@dataclass(frozen=True)
class ScheduleReport:
    fractions: SyncFractions
    barriers: BarrierStats
    utilization: UtilizationStats
    secondary_share: float  # of all non-serialized resolutions
    repairs: int

    def render(self) -> str:
        b = self.barriers
        u = self.utilization
        windows = " ".join(str(w) for w in b.fire_windows[:8])
        if len(b.fire_windows) > 8:
            windows += " ..."
        return "\n".join(
            [
                "schedule report",
                f"  {self.fractions.render()}",
                f"  barriers: {b.count} (mean width {b.mean_width:.1f}, "
                f"max {b.max_width}, {b.merge_share:.0%} merged)",
                f"  fire windows: {windows or '(none)'}",
                f"  processors used: {u.processors_used}, "
                f"worst-case utilization {u.utilization:.0%}, "
                f"imbalance {u.imbalance:.2f}",
                f"  secondary resolutions: {self.secondary_share:.0%} "
                f"of cross-PE discharges; repairs: {self.repairs}",
            ]
        )


def analyze_schedule(result: ScheduleResult) -> ScheduleReport:
    """Build the full quality report for one schedule."""
    schedule = result.schedule
    fire = schedule.fire_times()

    barrier_list = schedule.barriers()
    widths = tuple(b.width for b in barrier_list)
    barriers = BarrierStats(
        count=len(barrier_list),
        mean_width=sum(widths) / len(widths) if widths else 0.0,
        max_width=max(widths, default=0),
        widths=widths,
        fire_windows=tuple(fire[b.id] for b in barrier_list),
        merged_count=sum(1 for b in barrier_list if b.merged_from),
    )

    busy = tuple(
        sum(schedule.dag.latency(n).hi for n in schedule.instructions_on(pe))
        for pe in range(schedule.n_pes)
    )
    utilization = UtilizationStats(
        per_pe_busy=busy,
        makespan=schedule.makespan(),
        processors_used=schedule.used_processors(),
    )

    cross = (
        result.counts.path_edges
        + result.counts.timing_edges
        + result.counts.barrier_edges
    )
    secondary_share = (
        result.counts.secondary_resolutions / cross if cross else 0.0
    )
    return ScheduleReport(
        fractions=fractions_of(result),
        barriers=barriers,
        utilization=utilization,
        secondary_share=secondary_share,
        repairs=result.counts.repairs,
    )
