"""The three synchronization fractions of paper section 3.1.

Given a schedule's :class:`~repro.core.scheduler.SyncCounts`:

*Total Implied Synchronizations*
    The number of edges in the instruction DAG; each edge is one
    producer/consumer synchronization a conventional MIMD would perform
    at run time.

*Barrier Synchronization Fraction*
    Barriers in the schedule / total implied synchronizations.  Note the
    numerator counts **barriers**, not barrier-triggering edges: after
    SBM merging one barrier may stand in for several edges, which is why
    the paper reports merging *increases* the static fraction.

*Serialized Synchronization Fraction*
    Edges whose consumer landed on the producer's processor / total.

*Static Scheduling Fraction*
    Whatever remains -- synchronizations discharged at compile time by
    barrier-relative timing analysis (or by the structure of already
    placed barriers) with no run-time cost whatsoever.  This fraction is
    the feature unique to barrier MIMD architectures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import ScheduleResult, SyncCounts

__all__ = ["SyncFractions", "fractions_of"]


@dataclass(frozen=True, slots=True)
class SyncFractions:
    """The three fractions; they always sum to 1 (when any edge exists)."""

    total: int
    barrier: float
    serialized: float
    static: float

    def __post_init__(self) -> None:
        if self.total:
            s = self.barrier + self.serialized + self.static
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"fractions sum to {s}, expected 1")

    @property
    def no_runtime_sync(self) -> float:
        """Serialized + static: synchronizations with zero run-time cost.

        The paper's headline claim is that "more than 77% of all
        synchronizations which would occur in execution on a conventional
        MIMD will be accomplished without runtime synchronization".
        """
        return self.serialized + self.static

    def render(self) -> str:
        return (
            f"barrier {self.barrier:6.1%}  serialized {self.serialized:6.1%}  "
            f"static {self.static:6.1%}  (of {self.total} implied syncs)"
        )


def fractions_of(result: "ScheduleResult | SyncCounts") -> SyncFractions:
    """Compute the section 3.1 fractions for one schedule.

    Accepts anything carrying a ``counts`` attribute (a full
    :class:`ScheduleResult` or a compact corpus run's
    :class:`~repro.perf.parallel.CompactResult`) or bare counts.
    """
    counts = getattr(result, "counts", result)
    total = counts.total_edges
    if total == 0:
        return SyncFractions(0, 0.0, 0.0, 0.0)
    barrier = counts.barriers_final / total
    serialized = counts.serialized_edges / total
    # computed as the remainder; clamp the floating-point residue so a
    # fully-discharged schedule cannot report -1e-16
    static = max(0.0, 1.0 - barrier - serialized)
    return SyncFractions(total, barrier, serialized, static)
