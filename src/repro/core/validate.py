"""Final schedule validation and (defensive) repair.

The list scheduler discharges each producer/consumer edge at the moment
the consumer is placed.  Barriers inserted *later* can only delay events
(they add arrival constraints), and the step-[6] ``g+`` placement rule is
designed so the producer side's worst-case times do not grow; still, to
make soundness a checked invariant rather than an argument, every
completed schedule is re-validated edge by edge against its *final*
barrier dag:

* every real node is scheduled exactly once and same-processor edges
  respect stream order;
* every cross-processor edge is discharged structurally (PathFind) or by
  the conservative/optimal timing proof.

If a violation is ever found (counter exposed; observed 0 across the
corpus -- see EXPERIMENTS.md), :func:`repair_schedule` inserts a plain
barrier right after the producer / right before the consumer and
re-validates, which terminates because structurally-discharged edges stay
discharged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.barrier_insert import ResolutionKind, choose_safe_placements, classify_edge
from repro.core.merging import merge_all_overlapping
from repro.core.schedule import Schedule
from repro.ir.dag import NodeId
from repro.perf.timers import stage

__all__ = [
    "ScheduleError",
    "Violation",
    "check_structure",
    "find_violations",
    "repair_schedule",
    "finalize_schedule",
]


class ScheduleError(AssertionError):
    """A schedule failed a structural invariant."""


@dataclass(frozen=True, slots=True)
class Violation:
    producer: NodeId
    consumer: NodeId
    detail: str


def check_structure(schedule: Schedule) -> None:
    """Raise :class:`ScheduleError` on structural breakage (not timing).

    Walks the active PEs only: every idle PE shares ``idle_stream``,
    which is checked once to be exactly ``(b0,)``.
    """
    dag = schedule.dag
    b0 = schedule.initial_barrier
    idle = schedule.idle_stream
    if schedule.n_idle and (len(idle) != 1 or idle[0] is not b0):
        raise ScheduleError("idle PEs do not hold exactly b0")
    seen: dict[NodeId, int] = {}
    for pe in schedule.active_pes:
        stream = schedule.streams[pe]
        if not stream or stream[0] is not b0:
            raise ScheduleError(f"PE {pe} stream does not start with b0")
        for item in stream:
            if hasattr(item, "participants"):  # Barrier
                if pe not in item.participants:
                    raise ScheduleError(
                        f"barrier {item!r} appears on PE {pe} it does not span"
                    )
                continue
            if item in seen:
                raise ScheduleError(f"node {item!r} scheduled twice")
            seen[item] = pe
    missing = [n for n in dag.real_nodes if n not in seen]
    if missing:
        raise ScheduleError(f"nodes never scheduled: {missing[:5]}...")
    # every barrier must appear on each of its participants' streams; b0
    # heads every active stream (above) and is the whole idle stream
    if len(b0.participants) != schedule.n_pes:
        raise ScheduleError("b0 does not span every PE")
    for barrier in schedule.barriers():
        for pe in barrier.participants:
            schedule.barrier_position(barrier, pe)  # raises if absent


def find_violations(
    schedule: Schedule, mode: str = "conservative"
) -> list[Violation]:
    """Cross-processor edges not provably safe on the final schedule."""
    violations: list[Violation] = []
    for g, i in schedule.dag.real_edges():
        try:
            verdict = classify_edge(schedule, g, i, mode)
        except ValueError as exc:  # same-PE order inverted
            violations.append(Violation(g, i, str(exc)))
            continue
        if verdict.kind is ResolutionKind.BARRIER:
            violations.append(
                Violation(g, i, "no structural or timing guarantee on final schedule")
            )
    return violations


def repair_schedule(schedule: Schedule, mode: str = "conservative") -> int:
    """Insert plain barriers until no violation remains; return how many
    were added.  Defensive only: the list scheduler is expected to produce
    zero violations."""
    added = 0
    guard = schedule.dag.implied_synchronizations + 1
    for _ in range(guard):
        violations = find_violations(schedule, mode)
        if not violations:
            return added
        v = violations[0]
        placements = choose_safe_placements(schedule, v.producer, v.consumer)
        schedule.insert_barrier(placements)
        schedule.barrier_dag()  # raises immediately if a cycle was created
        added += 1
    raise ScheduleError("repair did not converge")


def finalize_schedule(
    schedule: Schedule, mode: str = "conservative", merge: bool = False
) -> tuple[int, int]:
    """Bring a freshly built schedule to its sound, invariant-satisfying
    final form; return ``(repairs, final_merges)``.

    For SBM schedules (``merge=True``) this alternates the global merge
    sweep (establishing the no-unordered-overlap FIFO invariant) with the
    edge revalidation/repair pass (merging delays barriers, which can in
    principle invalidate an earlier timing proof), until both are stable.
    """
    check_structure(schedule)
    total_repairs = 0
    total_merges = 0
    guard = schedule.dag.implied_synchronizations + len(schedule.barriers()) + 2
    for _ in range(guard):
        if merge:
            with stage("merge"):
                merges = merge_all_overlapping(schedule)
        else:
            merges = 0
        repairs = repair_schedule(schedule, mode)
        total_merges += merges
        total_repairs += repairs
        if merges == 0 and repairs == 0:
            return total_repairs, total_merges
    raise ScheduleError("finalization did not converge")
