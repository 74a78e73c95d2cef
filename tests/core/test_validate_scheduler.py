"""Tests for schedule validation/repair and the top-level scheduler."""

import pytest

from repro.timing import Interval
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.core.validate import (
    ScheduleError,
    check_structure,
    find_violations,
    finalize_schedule,
    repair_schedule,
)
from repro.ir.dag import InstructionDAG
from repro.metrics.fractions import fractions_of
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

from tests.conftest import chain_dag, diamond_dag


def hand_schedule_with_violation():
    """g on PE0, i on PE1, no barrier: the edge has no guarantee."""
    dag = InstructionDAG.build(
        {"g": Interval(1, 4), "i": Interval(1, 1)}, [("g", "i")]
    )
    sched = Schedule(dag, 2)
    sched.append_instruction(0, "g")
    sched.append_instruction(1, "i")
    return sched


def hand_schedule_with_two_violations():
    """Two independent unprotected cross-PE edges on three processors."""
    dag = InstructionDAG.build(
        {
            "g1": Interval(1, 4),
            "i1": Interval(1, 1),
            "g2": Interval(16, 24),
            "i2": Interval(1, 1),
        },
        [("g1", "i1"), ("g2", "i2")],
    )
    sched = Schedule(dag, 3)
    sched.append_instruction(0, "g1")
    sched.append_instruction(1, "i1")
    sched.append_instruction(1, "g2")
    sched.append_instruction(2, "i2")
    return sched


class TestCheckStructure:
    def test_complete_schedule_passes(self):
        sched = hand_schedule_with_violation()
        check_structure(sched)

    def test_missing_node_detected(self):
        dag = chain_dag([(1, 1), (1, 1)])
        sched = Schedule(dag, 2)
        sched.append_instruction(0, 0)
        with pytest.raises(ScheduleError):
            check_structure(sched)


class TestFindViolationsAndRepair:
    def test_unprotected_cross_edge_flagged(self):
        sched = hand_schedule_with_violation()
        violations = find_violations(sched)
        assert len(violations) == 1
        assert violations[0].producer == "g"

    def test_repair_inserts_barrier(self):
        sched = hand_schedule_with_violation()
        added = repair_schedule(sched)
        assert added == 1
        assert find_violations(sched) == []
        assert sched.n_barriers == 1

    def test_repair_idempotent(self):
        sched = hand_schedule_with_violation()
        repair_schedule(sched)
        assert repair_schedule(sched) == 0

    def test_finalize_combines_merge_and_repair(self):
        sched = hand_schedule_with_violation()
        repairs, merges = finalize_schedule(sched, merge=True)
        assert repairs == 1
        assert find_violations(sched) == []

    def test_repair_loop_fixes_multiple_broken_edges(self):
        # The insert-and-revalidate loop must keep iterating until every
        # edge is discharged, and the result must survive a full
        # finalize (structure check + revalidation) cleanly.
        sched = hand_schedule_with_two_violations()
        assert len(find_violations(sched)) >= 1
        added = repair_schedule(sched)
        assert added >= 1
        assert find_violations(sched) == []
        check_structure(sched)
        # Idempotent once sound.
        assert repair_schedule(sched) == 0

    def test_repair_rounds_stop_at_the_first_violation(self, monkeypatch):
        # A round classifies edges only up to its first violation.  The
        # dag lists (g2, i2) first, so round 1 stops there, round 2
        # reads the now-proved (g2, i2) and stops at (g1, i1), and the
        # closing clean scan reads both: five classifications, where
        # rescanning every edge in every round would take six.
        from repro.core import validate

        classified = []
        real = validate.classify_edge

        def counting(schedule, g, i, mode="conservative"):
            classified.append((g, i))
            return real(schedule, g, i, mode)

        monkeypatch.setattr(validate, "classify_edge", counting)
        sched = hand_schedule_with_two_violations()
        assert repair_schedule(sched) == 2
        assert classified == [
            ("g2", "i2"),
            ("g2", "i2"),
            ("g1", "i1"),
            ("g2", "i2"),
            ("g1", "i1"),
        ]
        classified.clear()
        assert find_violations(sched) == []
        assert len(classified) == 2  # the full list still reads every edge

    def test_repaired_schedule_executes_race_free(self):
        # The inserted barrier must hold up dynamically, not just in the
        # static checker: hammer the repaired schedule with randomized
        # durations and verify every trace against the DAG edges.
        from repro.machine.program import MachineProgram
        from repro.machine.sbm import simulate_sbm

        sched = hand_schedule_with_violation()
        repair_schedule(sched)
        program = MachineProgram.from_schedule(sched)
        for seed in range(10):
            trace = simulate_sbm(program, rng=seed)
            assert trace.verify(program.edges) == []


class TestSchedulerEndToEnd:
    def test_every_node_scheduled_once(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 11)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=11))
        scheduled = [n for pe in range(8) for n in result.schedule.instructions_on(pe)]
        assert sorted(map(str, scheduled)) == sorted(map(str, case.dag.real_nodes))

    def test_counts_partition_edges(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 12)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=12))
        c = result.counts
        assert (
            c.serialized_edges + c.path_edges + c.timing_edges + c.barrier_edges
            == c.total_edges
            == case.dag.implied_synchronizations
        )

    def test_fractions_sum_to_one(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 13)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=13))
        fr = fractions_of(result)
        assert fr.barrier + fr.serialized + fr.static == pytest.approx(1.0)

    def test_no_violations_on_final_schedule(self):
        for seed in range(6):
            case = compile_case(GeneratorConfig(n_statements=50, n_variables=12), seed)
            for machine in ("sbm", "dbm"):
                result = schedule_dag(
                    case.dag, SchedulerConfig(n_pes=8, seed=seed, machine=machine)
                )
                assert find_violations(result.schedule, result.config.insertion) == []

    def test_deterministic_given_seed(self):
        case = compile_case(GeneratorConfig(n_statements=30, n_variables=8), 21)
        r1 = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=5))
        r2 = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=5))
        assert r1.counts == r2.counts
        assert [tuple(map(str, s)) for s in r1.schedule.streams] == [
            tuple(map(str, s)) for s in r2.schedule.streams
        ]

    def test_single_pe_everything_serialized(self):
        case = compile_case(GeneratorConfig(n_statements=30, n_variables=8), 22)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=1))
        assert result.counts.serialized_edges == result.counts.total_edges
        assert result.counts.barriers_final == 0

    def test_makespan_at_least_critical_path(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 23)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=23))
        cp = case.dag.critical_path()
        assert result.makespan.hi >= cp.hi
        assert result.makespan.lo >= cp.lo

    def test_diamond_small_machine(self):
        result = schedule_dag(diamond_dag(), SchedulerConfig(n_pes=2, seed=0))
        assert result.counts.total_edges == 4
        assert find_violations(result.schedule) == []

    def test_dbm_skips_merging(self):
        case = compile_case(GeneratorConfig(n_statements=60, n_variables=12), 24)
        dbm = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=24, machine="dbm"))
        assert dbm.counts.merges == 0

    def test_sbm_merging_reduces_barriers(self):
        total_sbm = total_unmerged = 0
        for seed in range(8):
            case = compile_case(GeneratorConfig(n_statements=80, n_variables=10), seed)
            sbm = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=seed))
            plain = schedule_dag(
                case.dag,
                SchedulerConfig(n_pes=8, seed=seed, machine="dbm", merge_barriers=False),
            )
            total_sbm += sbm.counts.barriers_final
            total_unmerged += plain.counts.barriers_final
        assert total_sbm < total_unmerged

    def test_roundrobin_kills_serialization(self):
        case = compile_case(GeneratorConfig(n_statements=60, n_variables=10), 25)
        rr = schedule_dag(
            case.dag, SchedulerConfig(n_pes=16, seed=25, assignment="roundrobin")
        )
        base = schedule_dag(case.dag, SchedulerConfig(n_pes=16, seed=25))
        assert rr.counts.serialized_edges < base.counts.serialized_edges

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(n_pes=0)
        with pytest.raises(ValueError):
            SchedulerConfig(lookahead=-1)

    def test_merging_enabled_property(self):
        assert SchedulerConfig(machine="sbm").merging_enabled
        assert not SchedulerConfig(machine="dbm").merging_enabled
        assert SchedulerConfig(machine="dbm", merge_barriers=True).merging_enabled

    def test_describe_mentions_key_stats(self):
        case = compile_case(GeneratorConfig(n_statements=20, n_variables=6), 26)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=4, seed=26))
        text = result.describe()
        assert "syncs" in text and "makespan" in text


class TestBarrierLatency:
    def test_latency_increases_makespan(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 31)
        fast = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=31))
        slow = schedule_dag(
            case.dag, SchedulerConfig(n_pes=8, seed=31, barrier_latency=4)
        )
        assert slow.makespan.hi > fast.makespan.hi
        assert slow.makespan.lo > fast.makespan.lo

    def test_latency_zero_is_default(self):
        assert SchedulerConfig().barrier_latency == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SchedulerConfig(barrier_latency=-1)

    def test_fire_times_include_latency(self):
        case = compile_case(GeneratorConfig(n_statements=30, n_variables=8), 32)
        result = schedule_dag(
            case.dag, SchedulerConfig(n_pes=4, seed=32, barrier_latency=3)
        )
        sched = result.schedule
        fire = sched.fire_times()
        for barrier in sched.barriers():
            assert fire[barrier.id].lo >= 3  # at least one release latency

    def test_latency_schedule_still_sound(self):
        from repro.machine import MachineProgram, UniformSampler, simulate_sbm

        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 33)
        result = schedule_dag(
            case.dag, SchedulerConfig(n_pes=8, seed=33, barrier_latency=2)
        )
        program = MachineProgram.from_schedule(result.schedule)
        assert program.barrier_latency == 2
        for run in range(4):
            simulate_sbm(program, UniformSampler(), rng=run).assert_sound(
                program.edges
            )
