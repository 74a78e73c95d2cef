"""Property tests for incremental derived-view maintenance (perf PR).

:class:`~repro.core.schedule.Schedule` keeps its barrier dag, dominator
tree, fire times, and happens-before views *alive* across mutations --
appends leave them untouched, barrier insertions and replacements evolve
them in place -- instead of invalidating and rebuilding from the streams.
These tests pin the contract that makes that safe:

* after **any** mutation sequence (scheduler-driven or adversarially
  random) every materialized view is equal to a cold scratch rebuild;
* the end-to-end corpus digest is bit-identical to the value recorded
  before the optimization, so no observable scheduling decision moved;
* ``REPRO_CHECK=1`` wires the same scratch cross-check into
  every mutation, and the full pipeline runs clean under it.
"""

from __future__ import annotations

import random

import pytest

from repro.barriers.dominators import DominatorTree
from repro.core.merging import merge_all_overlapping
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.perf.parallel import results_digest
from repro.synth.generator import GeneratorConfig

from tests.conftest import make_case

#: results_digest of the paper's standard 100-block corpus point,
#: captured on the codebase *before* the incremental-view optimization.
#: The digest covers every edge resolution (kind, barrier, dominator,
#: secondary, merges), the stats summary, and the list order -- if any
#: scheduling decision shifts, this test fails.
PRE_OPTIMIZATION_DIGEST = (
    "3efead027d799e23985327d9f41c0b81bf7eba4ef09e397e6a81fdb75ac9ab7c"
)


def assert_views_match_scratch(sched: Schedule) -> None:
    """Every materialized derived view equals a cold rebuild."""
    bd = sched.barrier_dag()
    scratch = sched._scratch_barrier_dag()
    assert set(bd.barrier_ids) == set(scratch.barrier_ids)
    evolved_edges = {(e.src, e.dst): e.weight for e in bd.edges()}
    scratch_edges = {(e.src, e.dst): e.weight for e in scratch.edges()}
    assert evolved_edges == scratch_edges
    assert bd.fire_times() == scratch.fire_times()
    for bid in bd.barrier_ids:
        assert bd.descendants(bid) == scratch.descendants(bid)

    assert sched.fire_times() == scratch.fire_times()

    dom = sched.dominator_tree()
    fresh = DominatorTree(scratch)
    assert dom._idom == fresh._idom
    for u in bd.barrier_ids:
        for v in bd.barrier_ids:
            assert dom.dominates(u, v) == fresh.dominates(u, v)

    scratch_hb = sched._scratch_hb_successors()
    assert sched.hb_barrier_descendants() == (
        sched._scratch_hb_barrier_descendants(scratch_hb)
    )


def materialize(sched: Schedule) -> None:
    """Force every cache live so subsequent mutations *patch*, not rebuild."""
    sched.barrier_dag()
    sched.dominator_tree()
    sched.fire_times()
    sched.hb_successors()
    sched.hb_barrier_descendants()


class TestSchedulerDrivenEquivalence:
    """The real pipeline, with the built-in cross-check armed: every
    mutation the scheduler performs is verified against scratch rebuilds
    inside :meth:`Schedule._verify_incremental` (AssertionError on any
    divergence)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("machine", ["sbm", "dbm"])
    def test_pipeline_clean_under_cross_check(self, monkeypatch, seed, machine):
        monkeypatch.setenv("REPRO_CHECK", "1")
        case = make_case(n_statements=24, n_variables=6, seed=seed)
        cfg = SchedulerConfig(n_pes=4, machine=machine, seed=seed)
        result = schedule_dag(case.dag, cfg)
        assert result.schedule._check  # the flag actually armed the checks
        assert_views_match_scratch(result.schedule)

    @pytest.mark.parametrize("seed", range(3))
    def test_optimal_mode_clean_under_cross_check(self, monkeypatch, seed):
        monkeypatch.setenv("REPRO_CHECK", "1")
        case = make_case(n_statements=18, n_variables=5, seed=seed)
        cfg = SchedulerConfig(n_pes=3, insertion="optimal", seed=seed)
        result = schedule_dag(case.dag, cfg)
        assert_views_match_scratch(result.schedule)


class TestRandomMutationEquivalence:
    """Adversarial interleavings that the scheduler itself would never
    produce: appends to arbitrary processors, barrier placements at
    arbitrary (acyclic) stream positions, and merge sweeps -- with all
    caches forced live between mutations so the evolve/patch paths, not
    the cold builders, are what is being tested."""

    @pytest.mark.parametrize("seed", range(10))
    def test_views_match_after_random_mutations(self, seed):
        rng = random.Random(seed)
        case = make_case(n_statements=26, n_variables=6, seed=seed)
        n_pes = rng.choice([2, 3, 4])
        sched = Schedule(case.dag, n_pes)
        materialize(sched)

        for node in case.dag.real_nodes:
            sched.append_instruction(rng.randrange(n_pes), node)
            if rng.random() < 0.35:
                pes = [
                    pe for pe in range(n_pes)
                    if len(sched.streams[pe]) > 1 and rng.random() < 0.6
                ]
                placements = {
                    pe: rng.randint(1, len(sched.streams[pe])) for pe in pes
                }
                if placements and not sched.insertion_creates_hb_cycle(
                    placements
                ):
                    sched.insert_barrier(placements)
            if rng.random() < 0.3:
                materialize(sched)
            if rng.random() < 0.15:
                merge_all_overlapping(sched)

        merge_all_overlapping(sched)
        assert_views_match_scratch(sched)

    @pytest.mark.parametrize("seed", range(4))
    def test_mid_sequence_views_match(self, seed):
        """Check equality *during* the sequence, not just at the end."""
        rng = random.Random(1000 + seed)
        case = make_case(n_statements=16, n_variables=5, seed=seed)
        sched = Schedule(case.dag, 3)
        for step, node in enumerate(case.dag.real_nodes):
            materialize(sched)
            sched.append_instruction(rng.randrange(3), node)
            if step % 3 == 2:
                pe = rng.randrange(3)
                placements = {pe: len(sched.streams[pe])}
                if not sched.insertion_creates_hb_cycle(placements):
                    sched.insert_barrier(placements)
            assert_views_match_scratch(sched)


class TestDigestParity:
    def test_corpus_digest_unchanged(self):
        """End-to-end: the 100-block corpus produces bit-identical
        resolutions, merges, stats, and list orders to the
        pre-optimization codebase."""
        point = ExperimentPoint(
            generator=GeneratorConfig(n_statements=20, n_variables=8),
            scheduler=SchedulerConfig(n_pes=8),
            count=100,
            master_seed=0,
        )
        results = run_corpus(point, jobs=1)
        assert results_digest(results) == PRE_OPTIMIZATION_DIGEST
