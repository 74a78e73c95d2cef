"""Batched scheduling of a corpus chunk (bit-identical to serial).

:func:`schedule_cases` schedules many independent DAGs through the same
pipeline as :func:`repro.core.scheduler.schedule_dag`, but hoists the
three numpy-friendly analyses out of the per-case loop and runs each
once per chunk via :mod:`repro.kernels.batch`:

* the min/max-height labeling (one lockstep relaxation for the chunk);
* the scratch happens-before descendant sweep that a schedule's first
  merge round pays (primed for every cold case in one reachability
  batch, then patched incrementally as usual);
* the merge-verdict rounds of finalization (one ``(C, n, n)`` tensor
  round for every case still sweeping, instead of one python pair scan
  per case per round).

Everything order-sensitive -- list ordering, processor assignment,
barrier insertion, edge classification, repair -- still runs the
*unmodified* per-case code, and the batched finalize replicates
:func:`repro.core.validate.finalize_schedule` state-for-state (same
guard, same merge sequence, same repair points), so results are
bit-identical to ``schedule_dag`` case by case and ``results_digest``
is unchanged.

Cases whose config opts out of merging (DBM machines,
``merge_barriers=False``) finalize serially inside the batch; a chunk
below the ``"batch"`` kernel threshold, a machine without numpy, or an
active provenance recorder (which wants one record per rejected pair)
falls back to plain per-case ``schedule_dag``.
"""

from __future__ import annotations

from typing import Sequence

from repro import kernels
from repro.core.labeling import compute_heights
from repro.core.merging import _first_candidate_python
from repro.core.scheduler import (
    ScheduleResult,
    SchedulerConfig,
    _assemble_result,
    _list_schedule,
    schedule_dag,
)
from repro.core.validate import (
    ScheduleError,
    check_structure,
    finalize_schedule,
    repair_schedule,
    timing_edges,
)
from repro.ir.dag import InstructionDAG
from repro.obs.metrics import current_registry
from repro.obs.provenance import current_recorder, record_merge
from repro.obs.spans import span
from repro.perf.timers import stage
from repro.timing import Interval

__all__ = ["schedule_cases"]


def schedule_cases(
    dags: Sequence[InstructionDAG],
    configs: Sequence[SchedulerConfig],
) -> list[ScheduleResult]:
    """Schedule a chunk of independent DAGs, batching the numpy analyses.

    ``configs`` is parallel to ``dags`` (one scheduler config per case).
    Falls back to per-case :func:`schedule_dag` when the chunk is too
    small for the ``"batch"`` kernel threshold, numpy is missing, or a
    provenance recorder is active.
    """
    if len(dags) != len(configs):
        raise ValueError("dags and configs must be parallel sequences")
    if not dags:
        return []
    if current_recorder() is not None or not kernels.use_numpy(
        "batch", len(dags)
    ):
        with kernels.timed("batch", "python"):
            return [
                schedule_dag(dag, config) for dag, config in zip(dags, configs)
            ]

    reg = current_registry()
    with kernels.timed("batch", "numpy"), span("batch.schedule", cases=len(dags)):
        heights = _batched_heights(dags, reg)
        built = [
            _list_schedule(dag, config, h)
            for dag, config, h in zip(dags, configs, heights)
        ]
        finals = _batched_finalize(built, configs, reg)
    return [
        _assemble_result(schedule, config, inserter, order, repairs, merges)
        for (schedule, inserter, order), config, (repairs, merges) in zip(
            built, configs, finals
        )
    ]


def _batched_heights(dags, reg):
    """One lockstep relaxation for the whole chunk's height labels."""
    from repro.kernels import batch as kbatch

    succ_idx = []
    lat_lo = []
    lat_hi = []
    for dag in dags:
        nodes = dag.nodes
        pos = {node: i for i, node in enumerate(nodes)}
        succ_idx.append(
            [[pos[s] for s in dag.succs(node)] for node in nodes]
        )
        lats = [dag.latency(node) for node in nodes]
        lat_lo.append([lat.lo for lat in lats])
        lat_hi.append([lat.hi for lat in lats])
    if reg is not None:
        reg.inc("kernels.batch.heights")
    rows = kbatch.heights_batch(succ_idx, lat_lo, lat_hi)
    heights = []
    for dag, (h_lo, h_hi) in zip(dags, rows):
        labels = {
            node: Interval(lo, hi)
            for node, lo, hi in zip(dag.nodes, h_lo, h_hi)
        }
        if kernels.checking():
            kernels.verify("batch", labels, compute_heights(dag))
        heights.append(labels)
    return heights


def _prime_hb_descendants(states, reg):
    """Batch the scratch H sweep for every cold participant.

    ``hb_barrier_descendants`` is patched incrementally across
    mutations, so the full sweep only runs on first use -- once per
    case.  Batching it here means the chunk pays one reachability
    kernel instead of C python sweeps.
    """
    from repro.kernels import batch as kbatch

    cold = [st for st in states if st["schedule"].hb_descendants_cold()]
    if not cold:
        return
    inputs = [st["schedule"].hb_reach_inputs() for st in cold]
    if reg is not None:
        reg.inc("kernels.batch.reach")
    rows = kbatch.reach_batch(
        [inp[0] for inp in inputs],
        [inp[1] for inp in inputs],
        [len(inp[2]) for inp in inputs],
    )
    for st, inp, case_rows in zip(cold, inputs, rows):
        schedule = st["schedule"]
        schedule.adopt_hb_descendants(case_rows, inp[2], inp[3])
        if kernels.checking():
            kernels.verify(
                "batch",
                schedule.hb_barrier_descendants(),
                schedule._scratch_hb_barrier_descendants(
                    schedule.hb_successors()
                ),
            )


def _batched_finalize(built, configs, reg):
    """Replicate :func:`finalize_schedule` per case, batching the merge
    rounds across every case still sweeping; returns per-case
    ``(repairs, final_merges)``.

    Each case runs the exact serial state machine -- structure check,
    ``implied + barriers + 2`` guard frozen at entry, (merge sweep,
    repair) iterations to a joint fixpoint -- but each *merge round* is
    one :func:`repro.kernels.batch.first_candidates` call shared by all
    active cases.  One round finds at most one pair per case (the same
    first pair the serial cached scan finds), so the per-case merge
    sequence, and with it the surviving barrier set, is identical.
    """
    from repro.kernels import batch as kbatch

    finals: list[tuple[int, int] | None] = [None] * len(built)
    sweeping: list[dict] = []
    for i, ((schedule, inserter, _order), config) in enumerate(
        zip(built, configs)
    ):
        edges = timing_edges(schedule.dag, inserter.resolutions)
        if not config.merging_enabled:
            finals[i] = finalize_schedule(
                schedule, config.insertion, merge=False, edges=edges
            )
            continue
        check_structure(schedule)
        sweeping.append(
            {
                "index": i,
                "schedule": schedule,
                "mode": config.insertion,
                "edges": edges,
                "guard": schedule.dag.implied_synchronizations
                + len(schedule.barriers())
                + 2,
                "iterations": 0,
                "absorbed": 0,  # merges of the current sweep
                "repairs": 0,
                "merges": 0,
            }
        )

    round_no = 0
    while sweeping:
        round_no += 1
        finished: list[dict] = []
        with stage("merge"):
            with span(
                "batch.merge.round", round=round_no, cases=len(sweeping)
            ):
                _prime_hb_descendants(sweeping, reg)
                rounds = []
                for st in sweeping:
                    schedule = st["schedule"]
                    barriers = schedule.barriers()
                    fire = schedule.fire_times()
                    ids = [b.id for b in barriers]
                    rounds.append(
                        (
                            ids,
                            [fire[bid].lo for bid in ids],
                            [fire[bid].hi for bid in ids],
                            schedule.hb_barrier_descendants(),
                        )
                    )
                    st["barriers"] = barriers
                    st["fire"] = fire
                if reg is not None:
                    reg.inc("kernels.batch.merge")
                found = kbatch.first_candidates(rounds)
                if kernels.checking():
                    for st, pair in zip(sweeping, found):
                        kernels.verify(
                            "batch",
                            pair,
                            _first_candidate_python(
                                st["schedule"], st["barriers"], st["fire"]
                            ),
                        )
                still: list[dict] = []
                for st, pair in zip(sweeping, found):
                    if pair is None:
                        finished.append(st)
                        continue
                    schedule = st["schedule"]
                    survivor = st["barriers"][pair[0]]
                    victim = st["barriers"][pair[1]]
                    if reg is not None:
                        reg.inc("merge.verdict.merged")
                    record_merge(
                        "finalize",
                        survivor.id,
                        victim.id,
                        True,
                        "unordered-overlap",
                    )
                    survivor.absorb(victim)
                    schedule.replace_barrier(victim, survivor)
                    st["absorbed"] += 1
                    still.append(st)
        sweeping = still
        # Sweep fixpoints reached this round: run the repair half of the
        # finalize iteration (outside stage("merge"), as serially).
        for st in finished:
            merges = st["absorbed"]
            repairs = repair_schedule(st["schedule"], st["mode"], st["edges"])
            st["merges"] += merges
            st["repairs"] += repairs
            st["iterations"] += 1
            if merges == 0 and repairs == 0:
                finals[st["index"]] = (st["repairs"], st["merges"])
            elif st["iterations"] >= st["guard"]:
                raise ScheduleError("finalization did not converge")
            else:
                st["absorbed"] = 0
                sweeping.append(st)
    return finals
