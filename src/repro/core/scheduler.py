"""Top-level list scheduler for barrier MIMDs (paper section 4).

:func:`schedule_dag` runs the two scheduling phases -- height-based list
ordering followed by processor assignment with on-the-fly barrier
insertion -- and returns a :class:`ScheduleResult` bundling the finished
schedule, the per-edge resolutions, and the synchronization statistics
that the paper's evaluation (section 5) is built on.

Every architectural and heuristic knob of the paper is a field of
:class:`SchedulerConfig`:

=================  ============================================================
``n_pes``          machine size, 2..128 in the paper's sweeps
``machine``        ``"sbm"`` (merging on, total barrier order) or ``"dbm"``
``insertion``      ``"conservative"`` (used for all the paper's experiments)
                   or ``"optimal"`` (section 4.4.2)
``ordering``       ``"maxmin"`` (default) or ``"minmax"`` (section 5.4)
``assignment``     ``"list"`` (default) or ``"roundrobin"`` (section 5.4)
``lookahead``      window size ``p`` for the section 5.4 lookahead variant
``seed``           drives the random tie-breaking of section 4.3
=================  ============================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:  # upper layer; imported lazily in schedule_dag
    from repro.hybrid.plan import HybridPlan

from repro.core.assignment import make_policy
from repro.core.barrier_insert import BarrierInserter, EdgeResolution, ResolutionKind
from repro.core.labeling import compute_heights
from repro.core.ordering import order_nodes
from repro.core.schedule import Schedule
from repro.timing import Interval
from repro.core.validate import finalize_schedule, timing_edges
from repro.ir.dag import InstructionDAG, NodeId

__all__ = ["SchedulerConfig", "SyncCounts", "ScheduleResult", "schedule_dag"]


@dataclass(frozen=True)
class SchedulerConfig:
    """All knobs of the scheduling pipeline (see module docstring)."""

    n_pes: int = 8
    machine: Literal["sbm", "dbm"] = "sbm"
    insertion: Literal["conservative", "optimal"] = "conservative"
    ordering: Literal["maxmin", "minmax"] = "maxmin"
    assignment: Literal["list", "roundrobin"] = "list"
    #: ``"static"`` is the paper's compiler.  ``"hybrid"`` additionally
    #: classifies every timing-proved edge against the ``hybrid_epsilon``
    #: budget and demotes the fragile ones to dynamic data guards
    #: (:mod:`repro.hybrid`).  The schedule itself is identical either
    #: way -- hybrid mode only attaches a guard plan to the result.
    mode: Literal["static", "hybrid"] = "static"
    #: Uniform overrun (ε) a hybrid compile must survive; 0 demotes nothing.
    hybrid_epsilon: float = 0.0
    lookahead: int = 0
    #: Extension (0 = paper's exact step [2]): prefer a producer processor
    #: whose estimated start is within this many time units of the best.
    serialization_slack: int = 0
    seed: int = 0
    #: Extra release latency per barrier (0 = paper's ideal hardware;
    #: see the barrier-cost experiment).
    barrier_latency: int = 0
    #: None -> merge iff machine == "sbm" (the paper merges only for SBM).
    merge_barriers: bool | None = None

    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise ValueError("n_pes must be >= 1")
        if self.machine not in ("sbm", "dbm"):
            raise ValueError(f"unknown machine kind {self.machine!r}")
        if self.mode not in ("static", "hybrid"):
            raise ValueError(f"unknown scheduling mode {self.mode!r}")
        if self.hybrid_epsilon < 0:
            raise ValueError("hybrid_epsilon must be >= 0")
        if self.lookahead < 0:
            raise ValueError("lookahead must be >= 0")
        if self.barrier_latency < 0:
            raise ValueError("barrier_latency must be >= 0")

    @property
    def merging_enabled(self) -> bool:
        if self.merge_barriers is not None:
            return self.merge_barriers
        return self.machine == "sbm"

    def with_(self, **changes) -> "SchedulerConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class SyncCounts:
    """Raw synchronization counts for one schedule (section 3.1 terms)."""

    total_edges: int
    serialized_edges: int
    path_edges: int
    timing_edges: int
    barrier_edges: int  # edges whose resolution inserted a barrier
    barriers_final: int  # distinct barriers in the schedule (post-merging)
    merges: int
    secondary_resolutions: int
    optimal_rescues: int
    repairs: int
    #: Optimal-mode path walks that hit the MAX_PATHS cap and fell back to
    #: the conservative verdict (0 in conservative mode by construction).
    path_explosions: int = 0

    @property
    def static_edges(self) -> int:
        """Edges discharged without serialization or a dedicated barrier."""
        return self.path_edges + self.timing_edges


@dataclass(frozen=True)
class ScheduleResult:
    """A finished schedule plus everything the experiments measure."""

    schedule: Schedule
    config: SchedulerConfig
    counts: SyncCounts
    resolutions: tuple[EdgeResolution, ...]
    list_order: tuple[NodeId, ...]
    #: Guard plan of a ``mode="hybrid"`` compile (``None`` for static).
    #: The schedule above is identical in both modes; the plan only says
    #: which timing edges the runtime must additionally guard.
    hybrid: "HybridPlan | None" = None

    @property
    def makespan(self) -> Interval:
        return self.schedule.makespan()

    @property
    def n_barriers(self) -> int:
        return self.counts.barriers_final

    def describe(self) -> str:
        c = self.counts
        return (
            f"{self.config.n_pes} PEs {self.config.machine.upper()}: "
            f"{c.total_edges} syncs = {c.serialized_edges} serial "
            f"+ {c.static_edges} static + {c.barrier_edges} barrier-edges "
            f"({c.barriers_final} barriers after {c.merges} merges), "
            f"makespan {self.makespan}"
        )


def schedule_dag(
    dag: InstructionDAG,
    config: SchedulerConfig | None = None,
    heights: dict[NodeId, Interval] | None = None,
) -> ScheduleResult:
    """Schedule an instruction DAG onto a barrier MIMD.

    Phases (section 4): label nodes with min/max heights, sort them into
    the scheduling list, then assign each node to a processor and resolve
    each of its incoming producer edges -- inserting (and, for the SBM,
    merging) barriers where static timing cannot discharge them.

    ``heights`` accepts precomputed node labels (the batched driver
    labels a whole corpus chunk in one relaxation); ``None`` computes
    them here.
    """
    config = config or SchedulerConfig()
    schedule, inserter, order = _list_schedule(dag, config, heights)

    repairs, final_merges = finalize_schedule(
        schedule,
        config.insertion,
        merge=config.merging_enabled,
        edges=timing_edges(dag, inserter.resolutions),
    )

    return _assemble_result(
        schedule, config, inserter, order, repairs, final_merges
    )


def _list_schedule(
    dag: InstructionDAG,
    config: SchedulerConfig,
    heights: dict[NodeId, Interval] | None = None,
) -> tuple[Schedule, BarrierInserter, list[NodeId]]:
    """The list-scheduling phases up to (not including) finalization."""
    if heights is None:
        heights = compute_heights(dag)
    order = order_nodes(dag, config.ordering, heights)
    schedule = Schedule(dag, config.n_pes, config.barrier_latency)
    policy = make_policy(
        config.assignment, config.lookahead, config.serialization_slack
    )
    rng = random.Random(config.seed)
    inserter = BarrierInserter(
        schedule, mode=config.insertion, merge=config.merging_enabled
    )

    for index, node in enumerate(order):
        upcoming = order[index + 1:] if config.lookahead else ()
        pe = policy.choose(schedule, node, index, upcoming, rng)
        schedule.append_instruction(pe, node)
        # Resolve this consumer's incoming edges, most constraining
        # producer first so its barrier can discharge the others (the
        # figure 7/8 secondary effect).
        producers = sorted(
            dag.real_preds(node),
            key=lambda g: (-schedule.global_finish_hi(g), str(g)),
        )
        for g in producers:
            inserter.ensure_edge(g, node)

    return schedule, inserter, order


def _assemble_result(
    schedule: Schedule,
    config: SchedulerConfig,
    inserter: BarrierInserter,
    order: list[NodeId],
    repairs: int,
    final_merges: int,
) -> ScheduleResult:
    """Tally a finalized schedule into the :class:`ScheduleResult`."""
    resolutions = tuple(inserter.resolutions)
    counts = _tally(schedule, resolutions, repairs, final_merges)

    hybrid = None
    if config.mode == "hybrid":
        # Upper-layer import kept local so the core scheduler has no
        # static dependency on the hybrid/faults machinery.
        from repro.hybrid.plan import hybridize_schedule

        hybrid = hybridize_schedule(
            schedule, config.hybrid_epsilon, config.insertion
        )

    return ScheduleResult(
        schedule, config, counts, resolutions, tuple(order), hybrid
    )


def _tally(
    schedule: Schedule,
    resolutions: tuple[EdgeResolution, ...],
    repairs: int,
    final_merges: int = 0,
) -> SyncCounts:
    by_kind = {kind: 0 for kind in ResolutionKind}
    merges = 0
    secondary = 0
    rescues = 0
    explosions = 0
    for r in resolutions:
        by_kind[r.kind] += 1
        merges += r.merges
        if r.secondary:
            secondary += 1
        if r.via_optimal:
            rescues += 1
        if r.explosion:
            explosions += 1
    return SyncCounts(
        total_edges=len(resolutions),
        serialized_edges=by_kind[ResolutionKind.SERIALIZED],
        path_edges=by_kind[ResolutionKind.PATH],
        timing_edges=by_kind[ResolutionKind.TIMING],
        barrier_edges=by_kind[ResolutionKind.BARRIER],
        barriers_final=schedule.n_barriers,
        merges=merges + final_merges,
        secondary_resolutions=secondary,
        optimal_rescues=rescues,
        repairs=repairs,
        path_explosions=explosions,
    )
