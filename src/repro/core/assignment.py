"""Node-to-processor assignment policies (paper sections 4.3 and 5.4).

The default :class:`ListPolicy` implements section 4.3:

[1] Compute ``ProdProc(i)``, the processors hosting producers of ``i``.
    Among those, find the processors whose *last scheduled instruction*
    is a producer of ``i`` (an open "serialization slot").  Exactly one
    such processor: take it.  Several: take the one with the largest
    current maximum completion time ("to possibly avoid inserting a
    barrier"); full ties are broken at random.

[2] Otherwise assign ``i`` to a processor on which it can start as early
    as possible (estimated from producer finish times and processor
    completion times); ties are again broken at random, which "helps
    balance the number of nodes assigned to each processor".  Idle
    processors (stream just ``b0``) all share one estimate, so they are
    scored as one class (:func:`step2_classes`) while the tie set and
    its random draw stay those of a scan over every processor.

:class:`RoundRobinPolicy` (section 5.4) assigns the k-th list node to
processor ``k mod N`` -- the ablation that makes the serialization
fraction "nearly vanish" and pushes the barrier fraction toward 50%.

:class:`LookaheadPolicy` (section 5.4) wraps the list policy with a
window of size ``p``: a step-[2] placement that would fill another
pending node's open serialization slot is diverted to the next-best
processor when possible.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro import kernels
from repro.core.schedule import Schedule
from repro.ir.dag import NodeId
from repro.obs.provenance import current_recorder, record_assignment

__all__ = [
    "AssignmentPolicy",
    "ListPolicy",
    "RoundRobinPolicy",
    "LookaheadPolicy",
    "make_policy",
]


class AssignmentPolicy(Protocol):
    """Strategy interface: pick the processor for the next list node."""

    def choose(
        self,
        schedule: Schedule,
        node: NodeId,
        list_index: int,
        upcoming: Sequence[NodeId],
        rng: random.Random,
    ) -> int:
        """Return the processor index for ``node``.

        ``list_index`` is the node's position in the scheduling list and
        ``upcoming`` the nodes that follow it (used by lookahead).
        """
        ...


def _ready_time_hi(schedule: Schedule, node: NodeId, pe: int) -> int:
    """Worst-case time at which ``node``'s cross-processor operands are
    available if ``node`` runs on ``pe`` (same-processor producers are
    ordered by the stream itself)."""
    ready = 0
    for g in schedule.dag.real_preds(node):
        if schedule.processor_of(g) != pe:
            ready = max(ready, schedule.global_finish_hi(g))
    return ready


def _earliest_start_estimate(schedule: Schedule, node: NodeId, pe: int) -> int:
    """Worst-case estimated start of ``node`` on ``pe`` (step [2] metric)."""
    return max(schedule.completion_hi(pe), _ready_time_hi(schedule, node, pe))


def _dense_step2(
    schedule: Schedule, node: NodeId
) -> tuple[int, list[int], list[int]]:
    """Step [2] by definition: scan every PE for ``(best, ties,
    estimates)``.  The reference that ``REPRO_CHECK_KERNELS=1`` holds
    :func:`step2_classes` and the numpy kernel to."""
    estimates = [
        _earliest_start_estimate(schedule, node, pe)
        for pe in range(schedule.n_pes)
    ]
    best = min(estimates)
    ties = [pe for pe, est in enumerate(estimates) if est == best]
    return best, ties, estimates


class IdleTies(Sequence[int]):
    """The ascending PEs of ``range(n_pes)`` minus ``excluded``, lazily.

    When the idle class ties for the best estimate, the step-[2] tie set
    is every idle PE plus the active ties: all PEs except the active
    ones that did *not* tie.  ``len`` and indexing use bisect over that
    sorted exclusion list, so ``rng.choice(ties)`` makes the same single
    ``_randbelow(len(ties))`` draw, and returns the same PE, as it would
    on the dense list.
    """

    __slots__ = ("_n", "_excluded")

    def __init__(self, n_pes: int, excluded: list[int]) -> None:
        self._n = n_pes
        self._excluded = excluded

    def __len__(self) -> int:
        return self._n - len(self._excluded)

    def __getitem__(self, k: int) -> int:  # type: ignore[override]
        if not 0 <= k < len(self):
            raise IndexError("tie index out of range")
        # The k-th kept PE is k plus the number of excluded PEs below it;
        # excluded[j] - j counts the kept PEs below excluded[j].
        excl = self._excluded
        return k + bisect_right(range(len(excl)), k, key=lambda j: excl[j] - j)

    def __iter__(self):
        skip = set(self._excluded)
        return (pe for pe in range(self._n) if pe not in skip)


def step2_classes(
    schedule: Schedule, node: NodeId
) -> tuple[int, Sequence[int], dict[int, int], int]:
    """Step [2] over the active PEs plus one idle class.

    Returns ``(best, ties, estimates, idle_estimate)``: the minimum
    estimate, the ascending PEs attaining it (lazy when the idle class
    ties), each active PE's estimate, and the estimate every idle PE
    shares.  An idle PE hosts no producer and finishes at ``fire(b0).hi
    == 0``, so its estimate is ``R``, the latest producer finish (0 for
    a leaf).  Equal to :func:`_dense_step2` by construction.
    """
    # Producers' finish times once per node: the latest per host PE, and
    # the overall latest R.  A PE's ready time is the latest finish on
    # any *other* host.
    host_finish: dict[int, int] = {}
    ready = 0
    for g in schedule.dag.real_preds(node):
        host = schedule.processor_of(g)
        fin = schedule.global_finish_hi(g)
        if fin > ready:
            ready = fin
        if fin > host_finish.get(host, -1):
            host_finish[host] = fin
    estimates: dict[int, int] = {}
    for pe in schedule.active_pes:
        if pe in host_finish:
            pe_ready = max(
                (fin for h, fin in host_finish.items() if h != pe), default=0
            )
        else:
            pe_ready = ready
        estimates[pe] = max(schedule.completion_hi(pe), pe_ready)
    idle = schedule.n_idle > 0
    best = min(estimates.values(), default=ready)
    if idle:
        best = min(best, ready)
    if idle and ready == best:
        ties: Sequence[int] = IdleTies(
            schedule.n_pes, [pe for pe, est in estimates.items() if est != best]
        )
    else:
        ties = [pe for pe, est in estimates.items() if est == best]
    return best, ties, estimates, ready


def serialization_candidates(schedule: Schedule, node: NodeId) -> list[int]:
    """Producer processors whose last instruction is a producer of ``node``."""
    producers = schedule.dag.real_preds(node)
    producer_pes = {schedule.processor_of(g) for g in producers}
    wanted = set(producers)
    return [
        pe
        for pe in sorted(producer_pes)
        if schedule.last_instruction_on(pe) in wanted
    ]


@dataclass
class ListPolicy:
    """The paper's default assignment heuristic (section 4.3).

    ``serialization_slack`` is an extension knob (0 = the paper's exact
    rule): in step [2], a producer processor whose estimated start is
    within ``slack`` time units of the global best is preferred over a
    foreign processor.  Small positive values trade a slightly longer
    worst-case makespan for noticeably fewer barriers (see the
    serialization-slack ablation bench and EXPERIMENTS.md).
    """

    serialization_slack: int = 0

    def choose(
        self,
        schedule: Schedule,
        node: NodeId,
        list_index: int,
        upcoming: Sequence[NodeId],
        rng: random.Random,
    ) -> int:
        pe = self._step1(schedule, node, rng)
        if pe is not None:
            return pe
        return self._step2(schedule, node, rng)

    # Step [1]: serialization-preferring placement.
    def _step1(self, schedule: Schedule, node: NodeId, rng: random.Random) -> int | None:
        candidates = serialization_candidates(schedule, node)
        if not candidates:
            return None
        if len(candidates) == 1:
            record_assignment(
                node, candidates[0], "serialization", candidates=candidates
            )
            return candidates[0]
        best_hi = max(schedule.completion_hi(pe) for pe in candidates)
        top = [pe for pe in candidates if schedule.completion_hi(pe) == best_hi]
        pe = top[0] if len(top) == 1 else rng.choice(top)
        record_assignment(
            node, pe, "serialization", candidates=candidates, ties=top
        )
        return pe

    # Step [2]: earliest-start placement.
    def _step2(self, schedule: Schedule, node: NodeId, rng: random.Random) -> int:
        candidates = len(schedule.active_pes) + (1 if schedule.n_idle else 0)
        if kernels.use_numpy("assign", candidates):
            from repro.kernels import assignvec

            with kernels.timed("assign", "numpy"):
                best, ties, vec = assignvec.step2_estimates(schedule, node)
            get_est = lambda pe: int(vec[pe])  # noqa: E731
        else:
            with kernels.timed("assign", "python"):
                best, ties, estimates, idle_est = step2_classes(schedule, node)
            get_est = lambda pe: estimates.get(pe, idle_est)  # noqa: E731
        if kernels.checking():
            # The answer and every estimate slack may read, per PE.
            kernels.verify(
                "assign",
                (best, list(ties), [get_est(pe) for pe in range(schedule.n_pes)]),
                _dense_step2(schedule, node),
            )
        if self.serialization_slack > 0:
            producer_pes = sorted(
                {schedule.processor_of(g) for g in schedule.dag.real_preds(node)}
            )
            close = [
                (get_est(pe), pe)
                for pe in producer_pes
                if get_est(pe) <= best + self.serialization_slack
            ]
            if close:
                est, pe = min(close)
                record_assignment(
                    node, pe, "slack-serialization", estimate=est, best=best
                )
                return pe
        pe = ties[0] if len(ties) == 1 else rng.choice(ties)
        if current_recorder() is not None:
            record_assignment(
                node, pe, "earliest-start", estimate=best, ties=list(ties)
            )
        return pe


@dataclass
class RoundRobinPolicy:
    """Section 5.4 ablation: the i-th list node goes to processor i mod N."""

    def choose(
        self,
        schedule: Schedule,
        node: NodeId,
        list_index: int,
        upcoming: Sequence[NodeId],
        rng: random.Random,
    ) -> int:
        pe = list_index % schedule.n_pes
        record_assignment(node, pe, "roundrobin", list_index=list_index)
        return pe


@dataclass
class LookaheadPolicy:
    """Section 5.4 ablation: protect upcoming serialization opportunities.

    When the inner list policy resolves via step [2] (no serialization for
    the current node), examine the next ``window`` list nodes; if the
    chosen processor's last instruction is a producer of one of them --
    an open slot the placement would destroy -- divert to the
    earliest-start processor that does not conflict, when one exists.
    """

    window: int = 4
    inner: ListPolicy = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("lookahead window must be >= 1")
        if self.inner is None:
            self.inner = ListPolicy()

    def choose(
        self,
        schedule: Schedule,
        node: NodeId,
        list_index: int,
        upcoming: Sequence[NodeId],
        rng: random.Random,
    ) -> int:
        serial = self.inner._step1(schedule, node, rng)
        if serial is not None:
            return serial  # the node's own serialization always wins
        default = self.inner._step2(schedule, node, rng)
        if not self._conflicts(schedule, node, default, upcoming):
            return default

        # Divert to the best non-conflicting processor, if any.  Idle PEs
        # never conflict and all estimate R, so the lowest-index idle PE
        # other than the default stands for the whole idle class.
        _, _, estimates, idle_estimate = step2_classes(schedule, node)
        alternatives = [
            (est, pe)
            for pe, est in estimates.items()
            if pe != default and not self._conflicts(schedule, node, pe, upcoming)
        ]
        idle = _lowest_idle_pe(schedule, default)
        if idle is not None:
            alternatives.append((idle_estimate, idle))
        if kernels.checking():
            kernels.verify(
                "assign",
                min(alternatives, default=None),
                min(
                    (
                        (_earliest_start_estimate(schedule, node, pe), pe)
                        for pe in range(schedule.n_pes)
                        if pe != default
                        and not self._conflicts(schedule, node, pe, upcoming)
                    ),
                    default=None,
                ),
            )
        if alternatives:
            est, pe = min(alternatives)
            record_assignment(
                node, pe, "lookahead-divert", diverted_from=default, estimate=est
            )
            return pe
        return default

    def _conflicts(
        self,
        schedule: Schedule,
        node: NodeId,
        pe: int,
        upcoming: Sequence[NodeId],
    ) -> bool:
        last = schedule.last_instruction_on(pe)
        if last is None:
            return False
        for waiting in upcoming[: self.window]:
            if last in schedule.dag.real_preds(waiting):
                return True
        return False


def _lowest_idle_pe(schedule: Schedule, skip: int) -> int | None:
    """The lowest-index idle PE other than ``skip``, if any."""
    taken = set(schedule.active_pes)
    taken.add(skip)
    pe = 0
    while pe in taken:
        pe += 1
    return pe if pe < schedule.n_pes else None


def make_policy(
    name: str,
    lookahead: int = 0,
    serialization_slack: int = 0,
) -> AssignmentPolicy:
    """Factory used by :class:`~repro.core.scheduler.SchedulerConfig`."""
    if name == "list":
        inner = ListPolicy(serialization_slack=serialization_slack)
        if lookahead > 0:
            return LookaheadPolicy(window=lookahead, inner=inner)
        return inner
    if name == "roundrobin":
        return RoundRobinPolicy()
    raise ValueError(f"unknown assignment policy {name!r}")
