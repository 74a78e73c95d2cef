"""Decision provenance: *why* the scheduler did what it did.

The paper's pipeline makes three kinds of discrete decisions that the
result alone does not explain:

* **assignment** -- which processor a list node landed on, and by which
  rule (section 4.3 step [1] serialization slot, step [2] earliest
  start, or an ablation policy);
* **barrier insertion** -- which fuzzy producer/consumer edge forced a
  barrier, i.e. the step [2]-[5] timing proof that *failed*: the
  consumer's earliest start ``T_min(i-)`` fell before the producer's
  latest finish ``T_max(g)`` (negative slack) relative to their common
  dominating barrier;
* **merging** -- which barrier pairs the SBM fused (H-unordered with
  overlapping fire windows) and which candidate pairs were rejected,
  with the reason.

A :class:`ProvenanceRecorder` is installed with
:func:`collect_provenance` (contextvar-scoped and zero-cost when
absent, like the span tracer); the scheduler, inserter and merger call
the module-level ``record_*`` helpers.  The ``repro-sbm explain``
subcommand correlates the recorded decisions with the finished schedule
(see :mod:`repro.obs.explain`).  Recording never influences results.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "AssignmentDecision",
    "BarrierDecision",
    "DemotionDecision",
    "MergeDecision",
    "ProvenanceRecorder",
    "collect_provenance",
    "current_recorder",
    "record_assignment",
    "record_barrier",
    "record_demotion",
    "record_merge",
]


@dataclass(frozen=True, slots=True)
class AssignmentDecision:
    """One node -> processor choice and the rule that made it."""

    node: object  # NodeId; kept opaque so this module stays stdlib-only
    pe: int
    #: ``serialization`` | ``earliest-start`` | ``slack-serialization`` |
    #: ``roundrobin`` | ``lookahead-divert``
    rule: str
    #: Rule-specific context: candidate PEs, start estimates, tie sets, ...
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "node": str(self.node),
            "pe": self.pe,
            "rule": self.rule,
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class BarrierDecision:
    """One inserted barrier and the failed timing proof that forced it."""

    barrier_id: int
    producer: object
    consumer: object
    dominator: int
    #: Latest producer finish relative to the dominator (step [3]).
    t_max_g: int
    #: Earliest consumer start relative to the dominator (step [4]).
    t_min_i: int
    #: ``t_min_i - t_max_g``; negative by construction (the proof failed).
    slack: int
    #: Processors the barrier spanned at insertion time.
    participants: tuple[int, ...]
    #: Barriers absorbed by per-insertion SBM merging.
    merges: int = 0
    #: The optimal-mode path walk exploded and fell back conservative.
    explosion: bool = False

    def as_dict(self) -> dict:
        return {
            "barrier_id": self.barrier_id,
            "producer": str(self.producer),
            "consumer": str(self.consumer),
            "dominator": self.dominator,
            "t_max_g": self.t_max_g,
            "t_min_i": self.t_min_i,
            "slack": self.slack,
            "participants": list(self.participants),
            "merges": self.merges,
            "explosion": self.explosion,
        }


@dataclass(frozen=True, slots=True)
class DemotionDecision:
    """One timing-proved edge the hybrid scheduler demoted to a dynamic
    data guard, and the margin arithmetic that condemned it."""

    producer: object
    consumer: object
    #: ``timing`` or ``timing-optimal`` (the static proof that was kept
    #: for ordering but judged too fragile to trust under faults).
    kind: str
    #: Static slack of the proof, ``T_min(i-) - T_max(g)``.
    slack: int
    #: Producer-side worst-case time the slack is measured against.
    t_max_producer: int
    #: ``slack / t_max_producer`` -- the edge's proven overrun tolerance.
    epsilon_edge: float
    #: The ε budget the edge failed to meet (``epsilon_edge < budget``).
    budget: float

    def as_dict(self) -> dict:
        return {
            "producer": str(self.producer),
            "consumer": str(self.consumer),
            "kind": self.kind,
            "slack": self.slack,
            "t_max_producer": self.t_max_producer,
            "epsilon_edge": self.epsilon_edge,
            "budget": self.budget,
        }


@dataclass(frozen=True, slots=True)
class MergeDecision:
    """One examined merge pair: fused, or rejected with the reason."""

    #: ``insert`` (per-insertion merging) or ``finalize`` (global sweep).
    trigger: str
    survivor: int
    other: int
    accepted: bool
    #: ``unordered-overlap`` (accepted) | ``hb-ordered`` |
    #: ``windows-disjoint`` (rejected).
    reason: str

    def as_dict(self) -> dict:
        return {
            "trigger": self.trigger,
            "survivor": self.survivor,
            "other": self.other,
            "accepted": self.accepted,
            "reason": self.reason,
        }


class ProvenanceRecorder:
    """Accumulates scheduler decisions for one dynamic extent."""

    def __init__(self) -> None:
        #: Last decision per node wins (lookahead records its inner
        #: step-[2] choice, then overrides it when it diverts).
        self.assignments: dict[object, AssignmentDecision] = {}
        self.barriers: list[BarrierDecision] = []
        self.merges: list[MergeDecision] = []
        self.demotions: list[DemotionDecision] = []

    def record_assignment(self, decision: AssignmentDecision) -> None:
        self.assignments[decision.node] = decision

    def record_barrier(self, decision: BarrierDecision) -> None:
        self.barriers.append(decision)

    def record_merge(self, decision: MergeDecision) -> None:
        self.merges.append(decision)

    def record_demotion(self, decision: DemotionDecision) -> None:
        self.demotions.append(decision)

    def barrier_decision(self, barrier_id: int) -> BarrierDecision | None:
        for d in self.barriers:
            if d.barrier_id == barrier_id:
                return d
        return None

    def as_dict(self) -> dict:
        return {
            "assignments": [d.as_dict() for d in self.assignments.values()],
            "barriers": [d.as_dict() for d in self.barriers],
            "merges": [d.as_dict() for d in self.merges],
            "demotions": [d.as_dict() for d in self.demotions],
        }


_recorder: ContextVar[ProvenanceRecorder | None] = ContextVar(
    "repro_obs_provenance", default=None
)


def current_recorder() -> ProvenanceRecorder | None:
    """The active recorder, or ``None``."""
    return _recorder.get()


@contextmanager
def collect_provenance() -> Iterator[ProvenanceRecorder]:
    """Install a fresh recorder for the dynamic extent of the block."""
    rec = ProvenanceRecorder()
    token = _recorder.set(rec)
    try:
        yield rec
    finally:
        _recorder.reset(token)


def record_assignment(node, pe: int, rule: str, **detail) -> None:
    rec = current_recorder()
    if rec is not None:
        rec.record_assignment(AssignmentDecision(node, pe, rule, detail))


def record_barrier(decision: BarrierDecision) -> None:
    rec = current_recorder()
    if rec is not None:
        rec.record_barrier(decision)


def record_merge(
    trigger: str, survivor: int, other: int, accepted: bool, reason: str
) -> None:
    rec = current_recorder()
    if rec is not None:
        rec.record_merge(MergeDecision(trigger, survivor, other, accepted, reason))


def record_demotion(decision: DemotionDecision) -> None:
    rec = current_recorder()
    if rec is not None:
        rec.record_demotion(decision)
