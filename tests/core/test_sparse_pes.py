"""Sparse per-PE schedule state and the step-[2] idle class.

A PE whose stream is only ``b0`` is idle: every idle PE shares one
stream and one set of tables, and list scheduling scores the idle PEs
as one class.  These tests pin that the sparse state is observably the
dense one: same streams, makespan, processor count and step-[2] tie
set, and the same PE drawn from the tie set for any RNG state.
"""

from __future__ import annotations

import random

import pytest

from repro.barriers.model import Barrier
from repro.core import scheduler as scheduler_module
from repro.core.assignment import (
    IdleTies,
    ListPolicy,
    LookaheadPolicy,
    _dense_step2,
    _earliest_start_estimate,
    _lowest_idle_pe,
    make_policy,
    step2_classes,
)
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.core.validate import check_structure
from repro.faults.model import FaultPlan, inflate_dag
from repro.ir.dag import InstructionDAG
from repro.obs.provenance import collect_provenance
from repro.perf.parallel import results_digest
from repro.timing import Interval, interval_max

from tests.conftest import chain_dag, make_case


def busy_fan_dag() -> InstructionDAG:
    """p0, p1 -> c, plus a long independent z and a leaf y."""
    return InstructionDAG.build(
        {
            "p0": Interval(1, 1),
            "p1": Interval(1, 4),
            "c": Interval(1, 1),
            "z": Interval(10, 10),
            "y": Interval(1, 1),
        },
        [("p0", "c"), ("p1", "c")],
    )


def dense_makespan(sched: Schedule) -> Interval:
    return interval_max(sched.completion(pe) for pe in range(sched.n_pes))


def dense_used(sched: Schedule) -> int:
    return sum(
        1
        for stream in sched.streams
        if any(not isinstance(item, Barrier) for item in stream)
    )


def assert_matches_dense(sched: Schedule, node) -> None:
    best, ties, _, _ = step2_classes(sched, node)
    dense_best, dense_ties, _ = _dense_step2(sched, node)
    assert best == dense_best
    assert len(ties) == len(dense_ties)
    assert [ties[k] for k in range(len(ties))] == dense_ties
    assert list(ties) == dense_ties


class TestIdleClass:
    def test_single_pe(self):
        sched = Schedule(chain_dag([(1, 2), (1, 1)]), 1)
        assert sched.n_idle == 1 and sched.active_pes == []
        assert_matches_dense(sched, 0)
        assert ListPolicy().choose(sched, 0, 0, (), random.Random(0)) == 0
        sched.append_instruction(0, 0)
        assert sched.n_idle == 0 and sched.active_pes == [0]
        best, ties, _, _ = step2_classes(sched, 1)
        assert (best, ties) == (2, [0])
        assert_matches_dense(sched, 1)

    def test_every_pe_active_has_no_idle_class(self):
        sched = Schedule(busy_fan_dag(), 3)
        sched.append_instruction(0, "p0")
        sched.append_instruction(1, "p1")
        sched.append_instruction(2, "z")
        assert sched.n_idle == 0
        best, ties, estimates, _ = step2_classes(sched, "c")
        assert isinstance(ties, list)
        assert estimates == {0: 4, 1: 4, 2: 10}
        assert (best, ties) == (4, [0, 1])
        assert_matches_dense(sched, "c")

    def test_idle_class_ties_with_active_pes(self):
        # R = 4: PE0 and PE1 also estimate 4, PE2 is busy until 10.
        sched = Schedule(busy_fan_dag(), 7)
        sched.append_instruction(0, "p0")
        sched.append_instruction(1, "p1")
        sched.append_instruction(2, "z")
        best, ties, _, idle_estimate = step2_classes(sched, "c")
        assert isinstance(ties, IdleTies)
        assert best == idle_estimate == 4
        assert list(ties) == [0, 1, 3, 4, 5, 6]
        assert_matches_dense(sched, "c")

    def test_idle_class_alone_beats_active_pes(self):
        sched = Schedule(busy_fan_dag(), 5)
        sched.append_instruction(0, "p1")
        sched.append_instruction(0, "p0")
        sched.append_instruction(0, "z")
        # Both producers on PE0, which is busy: only idle PEs reach R = 5.
        best, ties, _, _ = step2_classes(sched, "c")
        assert best == 5
        assert list(ties) == [1, 2, 3, 4]
        assert_matches_dense(sched, "c")

    def test_leaf_node_idle_estimate_is_zero(self):
        sched = Schedule(busy_fan_dag(), 4)
        sched.append_instruction(1, "z")
        best, ties, _, idle_estimate = step2_classes(sched, "y")
        assert best == idle_estimate == 0
        assert list(ties) == [0, 2, 3]
        assert_matches_dense(sched, "y")

    def test_lowest_idle_pe(self):
        sched = Schedule(busy_fan_dag(), 4)
        assert _lowest_idle_pe(sched, 0) == 1
        sched.append_instruction(1, "z")
        assert _lowest_idle_pe(sched, 0) == 2
        assert _lowest_idle_pe(sched, 3) == 0
        sched.append_instruction(0, "y")
        sched.append_instruction(2, "p0")
        assert _lowest_idle_pe(sched, 3) is None
        assert _lowest_idle_pe(sched, 0) == 3

    def test_recorded_ties_are_the_dense_list(self):
        sched = Schedule(busy_fan_dag(), 7)
        sched.append_instruction(0, "p0")
        sched.append_instruction(1, "p1")
        sched.append_instruction(2, "z")
        with collect_provenance() as rec:
            pe = ListPolicy()._step2(sched, "c", random.Random(3))
        ties = rec.assignments["c"].detail["ties"]
        assert ties == _dense_step2(sched, "c")[1]
        assert pe in ties


class DenseLookahead(LookaheadPolicy):
    """The divert scan over every PE: the reference for the idle class."""

    diverts = 0

    def choose(self, schedule, node, list_index, upcoming, rng):
        serial = self.inner._step1(schedule, node, rng)
        if serial is not None:
            return serial
        default = self.inner._step2(schedule, node, rng)
        if not self._conflicts(schedule, node, default, upcoming):
            return default
        alternatives = sorted(
            (_earliest_start_estimate(schedule, node, pe), pe)
            for pe in range(schedule.n_pes)
            if pe != default and not self._conflicts(schedule, node, pe, upcoming)
        )
        if not alternatives:
            return default
        DenseLookahead.diverts += 1
        return alternatives[0][1]


def test_lookahead_divert_matches_dense_scan(monkeypatch):
    configs = [
        SchedulerConfig(n_pes=pes, lookahead=4, seed=seed)
        for pes in (8, 16, 1024)
        for seed in range(12)
    ]
    cases = [make_case(30, seed=config.seed) for config in configs]
    sparse = [schedule_dag(c.dag, config) for c, config in zip(cases, configs)]

    def dense_policy(name, lookahead=0, serialization_slack=0):
        policy = make_policy(name, lookahead, serialization_slack)
        return DenseLookahead(window=policy.window, inner=policy.inner)

    monkeypatch.setattr(scheduler_module, "make_policy", dense_policy)
    DenseLookahead.diverts = 0
    dense = [schedule_dag(c.dag, config) for c, config in zip(cases, configs)]
    assert DenseLookahead.diverts > 0
    assert results_digest(sparse) == results_digest(dense)


class TestIdleTies:
    @pytest.mark.parametrize("n_pes", [1, 2, 7, 64, 1024])
    def test_matches_dense_list_at_every_index(self, n_pes):
        rng = random.Random(n_pes)
        for _ in range(20):
            k = rng.randint(0, n_pes - 1)
            excluded = sorted(rng.sample(range(n_pes), k))
            dense = [pe for pe in range(n_pes) if pe not in set(excluded)]
            ties = IdleTies(n_pes, excluded)
            assert len(ties) == len(dense)
            assert [ties[i] for i in range(len(ties))] == dense
            assert list(ties) == dense
            with pytest.raises(IndexError):
                ties[len(ties)]

    def test_choice_draws_the_same_pe(self):
        excluded = [0, 3, 4, 17, 18, 19, 500, 1023]
        dense = [pe for pe in range(1024) if pe not in excluded]
        ties = IdleTies(1024, excluded)
        for seed in range(300):
            a, b = random.Random(seed), random.Random(seed)
            assert a.choice(ties) == b.choice(dense)
            assert a.random() == b.random()  # same number of draws


class TestSparseSchedule:
    def test_idle_pes_share_one_stream(self):
        sched = Schedule(busy_fan_dag(), 1024)
        assert all(stream is sched.idle_stream for stream in sched.streams)
        assert sched.idle_stream == (sched.initial_barrier,)
        assert sched.makespan() == Interval(0, 0)
        assert sched.used_processors() == 0

    def test_insert_barrier_on_idle_pe_activates_it(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        sched = Schedule(busy_fan_dag(), 16)
        sched.append_instruction(2, "p0")
        bar = sched.insert_barrier({2: 2, 9: 1})
        assert sched.active_pes == [2, 9]
        assert sched.streams[9] == [sched.initial_barrier, bar]
        assert sched.streams[9] is not sched.idle_stream
        assert sched.n_idle == 14
        assert sched.used_processors() == 1 == dense_used(sched)
        assert sched.barrier_position(bar, 9) == 1
        sched.append_instruction(9, "c")
        assert sched.last_barrier_before(9, 2) is bar

    def test_bad_pe_rejected(self):
        sched = Schedule(busy_fan_dag(), 4)
        with pytest.raises(ValueError):
            sched.append_instruction(4, "p0")
        with pytest.raises(ValueError):
            sched.append_instruction(-1, "p0")
        with pytest.raises(ValueError):
            sched.insert_barrier({-1: 1})
        assert sched.active_pes == [] and not sched.scheduled_nodes

    def test_with_dag_keeps_idle_pes_idle(self):
        case = make_case(30, seed=5)
        sched = schedule_dag(case.dag, SchedulerConfig(n_pes=256, seed=5)).schedule
        clone = sched.with_dag(inflate_dag(case.dag, FaultPlan(epsilon=0.25)))
        assert clone.active_pes == sched.active_pes
        assert clone.active_pes is not sched.active_pes
        assert clone.idle_stream[0] is clone.initial_barrier
        assert clone.initial_barrier is not sched.initial_barrier
        for pe in range(clone.n_pes):
            if pe not in sched.active_pes:
                assert clone.streams[pe] is clone.idle_stream
        check_structure(clone)
        clone._verify_incremental()

    @pytest.mark.parametrize("n_pes", [1, 3, 64, 1024])
    def test_makespan_and_used_processors_match_dense(self, n_pes):
        for seed in range(3):
            case = make_case(40, seed=seed)
            for machine in ("sbm", "dbm"):
                cfg = SchedulerConfig(n_pes=n_pes, machine=machine, seed=seed)
                sched = schedule_dag(case.dag, cfg).schedule
                assert sched.makespan() == dense_makespan(sched)
                assert sched.used_processors() == dense_used(sched)
                assert len(sched.streams) == n_pes
                sched._verify_incremental()
