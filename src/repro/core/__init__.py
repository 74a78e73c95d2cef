"""Core scheduling package: the paper's contribution.

List scheduling with min/max-height ordering (sections 4.1-4.2),
serialization-aware processor assignment (4.3), conservative and optimal
barrier insertion (4.4.1-4.4.2), SBM barrier merging (4.4.3), and a final
soundness validation sweep.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Interval": "repro.timing",
    "ZERO": "repro.timing",
    "interval_max": "repro.timing",
    "interval_sum": "repro.timing",
    "compute_heights": "repro.core.labeling",
    "critical_path_nodes": "repro.core.labeling",
    "order_nodes": "repro.core.ordering",
    "ListPolicy": "repro.core.assignment",
    "LookaheadPolicy": "repro.core.assignment",
    "RoundRobinPolicy": "repro.core.assignment",
    "make_policy": "repro.core.assignment",
    "Item": "repro.core.schedule",
    "Schedule": "repro.core.schedule",
    "BarrierInserter": "repro.core.barrier_insert",
    "EdgeResolution": "repro.core.barrier_insert",
    "ResolutionKind": "repro.core.barrier_insert",
    "TimingQuantities": "repro.core.barrier_insert",
    "classify_edge": "repro.core.barrier_insert",
    "timing_quantities": "repro.core.barrier_insert",
    "find_merge_candidate": "repro.core.merging",
    "merge_new_barrier": "repro.core.merging",
    "ScheduleError": "repro.core.validate",
    "Violation": "repro.core.validate",
    "check_structure": "repro.core.validate",
    "find_violations": "repro.core.validate",
    "repair_schedule": "repro.core.validate",
    "ScheduleResult": "repro.core.scheduler",
    "SchedulerConfig": "repro.core.scheduler",
    "SyncCounts": "repro.core.scheduler",
    "schedule_dag": "repro.core.scheduler",
    "SyncEliminationResult": "repro.core.sync_elimination",
    "compute_sync_bounds": "repro.core.sync_elimination",
    "eliminate_directed_syncs": "repro.core.sync_elimination",
    "simulate_directed": "repro.core.sync_elimination",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
