"""Final schedule validation and repair.

The list scheduler discharges each producer/consumer edge at the moment
the consumer is placed.  A timing proof made then need not survive: it
starts from the nearest common dominator of ``LastBar(g)`` and
``LastBar(i-)`` in the barrier dag *of that moment*, and a barrier
inserted later can open a path to ``LastBar(i-)`` that bypasses it.  The
nearest common dominator then moves earlier, the bounds accumulate more
slack, and the proof can fail on the final dag.  Merges do not set the
repair count (DBM schedules, which never merge, need as many repairs as
SBM ones), but they cause almost all the real races among the failed
proofs: of the flagged edges of unrepaired schedules that raced under
simulated in-interval durations, all but one came from a merge
(EXPERIMENTS.md deviation 1).  So every completed schedule is
re-validated against its *final* barrier dag:

* every real node is scheduled exactly once and same-processor edges
  respect stream order;
* every cross-processor edge is discharged structurally (PathFind) or by
  the conservative/optimal timing proof.

Only the edges insertion proved by timing are re-checked
(:func:`timing_edges`).  The other discharges cannot break: a serialized
edge keeps its processor and stream order, and a path or barrier
discharge is a chain of barriers from ``NextBar(g)`` to ``LastBar(i-)``
that a later insert only lengthens (the new barrier sits on the stream
between two barriers it now orders) and a merge only fuses (the
survivor inherits every in- and out-edge).  Scanning the timing edges
in :meth:`~repro.ir.dag.InstructionDAG.real_edges` order therefore finds
the same first violation as a scan of every edge, so the repairs, and
every result, are those of the full scan.  :func:`find_violations` still
scans every edge: it is the independent check.

Each violation (about 0.4-0.7 per block on 8-PE corpora with
conservative insertion, counted as ``repairs``; see EXPERIMENTS.md
deviation 1) is repaired by :func:`repair_schedule`, which inserts a
plain barrier right after the producer / right before the consumer and
re-validates; this terminates because structurally-discharged edges
stay discharged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.barrier_insert import (
    EdgeResolution,
    ResolutionKind,
    choose_safe_placements,
    classify_edge,
)
from repro.core.merging import merge_all_overlapping
from repro.core.schedule import Schedule
from repro.ir.dag import InstructionDAG, NodeId
from repro.perf.timers import stage

#: A producer/consumer edge ``(g, i)``.
Edge = tuple[NodeId, NodeId]

__all__ = [
    "ScheduleError",
    "Violation",
    "check_structure",
    "find_violations",
    "repair_schedule",
    "finalize_schedule",
    "timing_edges",
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


def timing_edges(
    dag: InstructionDAG, resolutions: Iterable[EdgeResolution]
) -> list[Edge]:
    """The edges ``resolutions`` discharged by a timing proof, in
    :meth:`~repro.ir.dag.InstructionDAG.real_edges` order: the only ones
    a later insert or merge can break (see the module docstring)."""
    proved = {
        (r.producer, r.consumer)
        for r in resolutions
        if r.kind is ResolutionKind.TIMING
    }
    return [edge for edge in dag.real_edges() if edge in proved]


def _scan_violations(
    schedule: Schedule, mode: str, edges: Iterable[Edge] | None = None
) -> Iterator[Violation]:
    """Lazily classify ``edges`` (default: every real edge) in order,
    yielding each violation."""
    for g, i in schedule.dag.real_edges() if edges is None else edges:
        try:
            verdict = classify_edge(schedule, g, i, mode)
        except ValueError as exc:  # same-PE order inverted
            yield Violation(g, i, str(exc))
            continue
        if verdict.kind is ResolutionKind.BARRIER:
            yield Violation(
                g, i, "no structural or timing guarantee on final schedule"
            )


def find_violations(
    schedule: Schedule, mode: str = "conservative"
) -> list[Violation]:
    """Cross-processor edges not provably safe on the final schedule."""
    return list(_scan_violations(schedule, mode))


def repair_schedule(
    schedule: Schedule,
    mode: str = "conservative",
    edges: Sequence[Edge] | None = None,
) -> int:
    """Insert plain barriers until no violation remains; return how many
    were added.

    ``edges`` are the edges to re-check, in edge order (default: every
    real edge).  Each round repairs the first violation and rescans from
    the start, because the new barrier changes the dag that later
    verdicts read."""
    added = 0
    guard = schedule.dag.implied_synchronizations + 1
    for _ in range(guard):
        v = next(_scan_violations(schedule, mode, edges), None)
        if v is None:
            return added
        placements = choose_safe_placements(schedule, v.producer, v.consumer)
        schedule.insert_barrier(placements)
        schedule.barrier_dag()  # raises immediately if a cycle was created
        added += 1
    raise ScheduleError("repair did not converge")


def finalize_schedule(
    schedule: Schedule,
    mode: str = "conservative",
    merge: bool = False,
    edges: Sequence[Edge] | None = None,
) -> tuple[int, int]:
    """Bring a freshly built schedule to its sound, invariant-satisfying
    final form; return ``(repairs, final_merges)``.

    ``edges`` are the edges the repair pass re-checks
    (:func:`repair_schedule`); the list scheduler passes
    :func:`timing_edges` of its resolutions.  The default, every real
    edge, serves a schedule with no insertion record (e.g. one re-bound
    to an inflated DAG by ε-hardening).

    For SBM schedules (``merge=True``) this alternates the global merge
    sweep (establishing the no-unordered-overlap FIFO invariant) with the
    edge revalidation/repair pass until both are stable: a repair barrier
    can overlap an unordered barrier, and a merge reshapes the dag the
    timing proofs read.
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
        repairs = repair_schedule(schedule, mode, edges)
        total_merges += merges
        total_repairs += repairs
        if merges == 0 and repairs == 0:
            return total_repairs, total_merges
    raise ScheduleError("finalization did not converge")
