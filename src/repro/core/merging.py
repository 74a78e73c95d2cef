"""SBM barrier merging (paper section 4.4.3).

"If the execution time range of the new barrier overlaps with any other
barriers currently scheduled, and if the overlapping barriers are not
ordered with respect to the barrier dag, then they are merged into a
single barrier."

Merging is required for the *static* barrier MIMD, whose hardware executes
barriers from a FIFO queue in one compile-time total order: two unordered
barriers whose fire-time windows overlap could arrive in either order at
run time, so the SBM fuses them into one wider barrier.  (The dynamic
barrier MIMD's associative matching hardware handles either order, so DBM
schedules skip this step.)

Orderedness is judged against the full **happens-before graph H**
(:meth:`repro.core.schedule.Schedule.hb_barrier_ordered`): stream
adjacency plus every committed producer/consumer data edge.  The bare
barrier dag is too weak a test -- two barriers can be dag-unordered yet
forced into one run-time order by an instruction edge that was discharged
by *timing*, and merging such a pair would demand the consumer's region
complete before its producer's, an unrepairable inversion.  H-unordered
pairs are genuinely concurrent, so merging them is always sound (possibly
after a cheap revalidation, since a merge can still *delay* a producer --
the finalization loop in :mod:`repro.core.validate` handles that).

Two structural facts keep the operation well-defined:

* H-unordered barriers never share a processor (a shared processor's
  stream would chain them), so participant sets union disjointly;
* merging two H-unordered nodes cannot create a cycle in H (a path
  between the merge partners would have made them ordered).
"""

from __future__ import annotations

from repro.barriers.model import Barrier
from repro.core.schedule import Schedule
from repro.obs.metrics import current_registry
from repro.obs.provenance import current_recorder, record_merge
from repro.obs.spans import span

__all__ = [
    "merge_new_barrier",
    "find_merge_candidate",
    "merge_all_overlapping",
]


def find_merge_candidate(schedule: Schedule, barrier: Barrier) -> Barrier | None:
    """The first scheduled barrier that is H-unordered with ``barrier``
    and whose fire-time interval overlaps it, or ``None``."""
    fire = schedule.fire_times()
    window = fire[barrier.id]
    reg = current_registry()
    rec = current_recorder()
    for other in schedule.barriers():
        if other is barrier:
            continue
        if schedule.hb_barrier_ordered(barrier.id, other.id):
            if reg is not None:
                reg.inc("merge.verdict.recomputed")
                reg.inc("merge.verdict.ordered")
            if rec is not None:
                record_merge("insert", barrier.id, other.id, False, "hb-ordered")
            continue
        if reg is not None:
            reg.inc("merge.verdict.recomputed")
        if window.overlaps(fire[other.id]):
            return other
        if reg is not None:
            reg.inc("merge.verdict.disjoint")
        if rec is not None:
            record_merge(
                "insert", barrier.id, other.id, False, "windows-disjoint"
            )
    return None


def merge_new_barrier(schedule: Schedule, barrier: Barrier) -> int:
    """Merge every eligible barrier into ``barrier``; return how many were
    absorbed.  ``barrier`` survives and widens."""
    absorbed = 0
    reg = current_registry()
    while True:
        other = find_merge_candidate(schedule, barrier)
        if other is None:
            return absorbed
        if reg is not None:
            reg.inc("merge.verdict.merged")
        record_merge("insert", barrier.id, other.id, True, "unordered-overlap")
        barrier.absorb(other)
        schedule.replace_barrier(other, barrier)
        absorbed += 1


def merge_all_overlapping(schedule: Schedule) -> int:
    """Global merge sweep: fuse *every* H-unordered,
    fire-window-overlapping barrier pair, to a fixpoint; return the number
    of merges performed.

    Per-insertion merging only examines the barrier just inserted, but a
    later insertion can shift other barriers' fire windows and re-create
    an overlap between two older barriers.  The SBM requires the invariant
    globally -- it is what makes the happens-before-consistent FIFO queue
    free of head-of-line blocking -- so the scheduler runs this sweep when
    an SBM schedule is finalized.

    The sweep is a worklist, not a full O(B^2) re-scan per merge: pair
    verdicts are cached and only invalidated when they can actually flip.
    An "H-ordered" verdict is permanent (merging only ever *adds* order:
    any path through the victim is preserved through the survivor), and a
    "fire windows disjoint" verdict holds as long as both barriers' fire
    values are unchanged.  Each round still walks pairs in the same
    id-sorted order as the naive scan and a cached verdict is skipped
    exactly when re-testing would reach the same conclusion, so the merge
    *sequence* -- and therefore the surviving barrier set -- is identical
    to the full-rescan fixpoint.
    """
    absorbed = 0
    fire = schedule.fire_times()
    ordered: set[tuple[int, int]] = set()  # permanent verdicts
    disjoint: set[tuple[int, int]] = set()  # valid while both windows hold
    reg = current_registry()
    rec = current_recorder()
    rounds = 0
    while True:
        rounds += 1
        with span("merge.round", round=rounds):
            pair = _scan_round(
                schedule, schedule.barriers(), fire, ordered, disjoint, reg, rec
            )
            if pair is None:
                return absorbed
            survivor, victim = pair
            if reg is not None:
                reg.inc("merge.verdict.merged")
            record_merge(
                "finalize", survivor.id, victim.id, True, "unordered-overlap"
            )
            survivor.absorb(victim)
            schedule.replace_barrier(victim, survivor)
            absorbed += 1
        old_fire = fire
        fire = schedule.fire_times()
        dirty = {victim.id, survivor.id}
        dirty.update(
            bid for bid, window in fire.items() if old_fire.get(bid) != window
        )
        ordered = {
            (x, y) for (x, y) in ordered if x != victim.id and y != victim.id
        }
        disjoint = {
            (x, y) for (x, y) in disjoint if x not in dirty and y not in dirty
        }


def _first_candidate_python(schedule, barriers, fire):
    """Cache-free reference scan for the batched merge kernel's
    cross-check (:func:`repro.kernels.batch.first_candidates`): position
    pair of the round's first H-unordered overlapping pair."""
    for a_idx, a in enumerate(barriers):
        for b_idx in range(a_idx + 1, len(barriers)):
            b = barriers[b_idx]
            if schedule.hb_barrier_ordered(a.id, b.id):
                continue
            if fire[a.id].overlaps(fire[b.id]):
                return (a_idx, b_idx)
    return None


def _scan_round(schedule, barriers, fire, ordered, disjoint, reg, rec):
    """One round of the worklist scan: returns the first mergeable pair,
    updating the verdict caches."""
    for a_idx, a in enumerate(barriers):
        for b in barriers[a_idx + 1:]:
            key = (a.id, b.id)
            if key in ordered or key in disjoint:
                if reg is not None:
                    reg.inc("merge.verdict.cached")
                continue
            if reg is not None:
                reg.inc("merge.verdict.recomputed")
            if schedule.hb_barrier_ordered(a.id, b.id):
                if reg is not None:
                    reg.inc("merge.verdict.ordered")
                if rec is not None:
                    record_merge("finalize", a.id, b.id, False, "hb-ordered")
                ordered.add(key)
                continue
            if fire[a.id].overlaps(fire[b.id]):
                return (a, b)
            if reg is not None:
                reg.inc("merge.verdict.disjoint")
            if rec is not None:
                record_merge("finalize", a.id, b.id, False, "windows-disjoint")
            disjoint.add(key)
    return None
