"""Tests for the SBM and DBM simulators: semantics and soundness.

These exercise the hardware behaviours of section 3.2 on hand-built
programs, then hammer scheduler output with randomized durations -- the
system-level oracle for the entire static analysis.
"""

import pytest

from repro.timing import Interval
from repro.barriers.mask import BarrierMask
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.machine.durations import (
    FixedSampler,
    MaxSampler,
    MinSampler,
    UniformSampler,
)
from repro.machine.program import BarrierRef, MachineOp, MachineProgram
from repro.machine.dbm import simulate_dbm
from repro.machine.sbm import simulate_sbm
from repro.machine.trace import DeadlockError
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig


def hand_program(streams, masks, order, edges=()):
    return MachineProgram(
        n_pes=len(streams),
        streams=tuple(tuple(s) for s in streams),
        masks=masks,
        barrier_order=tuple(order),
        initial_barrier_id=0,
        edges=tuple(edges),
    )


def simple_two_pe_program():
    """PE0: g [1,4]; barrier b1 {0,1}; PE1: i [1,1] after b1."""
    b0 = BarrierRef(0)
    b1 = BarrierRef(1)
    op_g = MachineOp("g", Interval(1, 4), "g")
    op_i = MachineOp("i", Interval(1, 1), "i")
    streams = [[b0, op_g, b1], [b0, b1, op_i]]
    masks = {
        0: BarrierMask.from_pes([0, 1], 2),
        1: BarrierMask.from_pes([0, 1], 2),
    }
    return hand_program(streams, masks, [0, 1], edges=[("g", "i")])


class TestBasicExecution:
    def test_initial_barrier_fires_at_zero(self):
        trace = simulate_sbm(simple_two_pe_program(), MaxSampler())
        assert trace.barrier_fire[0] == 0

    def test_barrier_fires_at_last_arrival(self):
        trace = simulate_sbm(simple_two_pe_program(), MaxSampler())
        assert trace.barrier_fire[1] == 4
        assert trace.start["i"] == 4
        assert trace.makespan == 5

    def test_exact_synchrony_release(self):
        trace = simulate_sbm(simple_two_pe_program(), MinSampler())
        assert trace.barrier_fire[1] == 1
        # both PEs resume at the fire instant: PE1 starts i exactly then
        assert trace.start["i"] == 1

    def test_verify_passes(self):
        program = simple_two_pe_program()
        trace = simulate_sbm(program, UniformSampler(), rng=3)
        assert trace.verify(program.edges) == []

    def test_deterministic_given_rng_seed(self):
        program = simple_two_pe_program()
        t1 = simulate_sbm(program, UniformSampler(), rng=9)
        t2 = simulate_sbm(program, UniformSampler(), rng=9)
        assert t1.durations == t2.durations and t1.makespan == t2.makespan


class TestSBMFifoSemantics:
    def test_head_of_line_blocking(self):
        """A ready barrier behind the head must wait for the head."""
        b0 = BarrierRef(0)
        bA = BarrierRef(1)  # {0,1}: PE0 slow [10,10]
        bB = BarrierRef(2)  # {2,3}: ready at t=1
        slow = MachineOp("s", Interval(10, 10), "s")
        fast = MachineOp("f", Interval(1, 1), "f")
        streams = [
            [b0, slow, bA],
            [b0, bA],
            [b0, fast, bB],
            [b0, bB],
        ]
        masks = {
            0: BarrierMask.from_pes([0, 1, 2, 3], 4),
            1: BarrierMask.from_pes([0, 1], 4),
            2: BarrierMask.from_pes([2, 3], 4),
        }
        # queue order puts A first although B's participants arrive first
        program = hand_program(streams, masks, [0, 1, 2])
        trace = simulate_sbm(program, MaxSampler())
        assert trace.barrier_fire[1] == 10
        assert trace.barrier_fire[2] == 10  # delayed by the FIFO head
        # DBM fires B as soon as it is ready
        dbm = simulate_dbm(program, MaxSampler())
        assert dbm.barrier_fire[2] == 1

    def test_sbm_deadlock_on_impossible_order(self):
        """Queue order inconsistent with per-PE stream order deadlocks."""
        b0 = BarrierRef(0)
        b1 = BarrierRef(1)
        b2 = BarrierRef(2)
        streams = [[b0, b1, b2], [b0, b1, b2]]
        masks = {
            0: BarrierMask.from_pes([0, 1], 2),
            1: BarrierMask.from_pes([0, 1], 2),
            2: BarrierMask.from_pes([0, 1], 2),
        }
        program = hand_program(streams, masks, [0, 2, 1])
        with pytest.raises(DeadlockError):
            simulate_sbm(program, MaxSampler())


class TestDBMSemantics:
    def test_fires_in_arrival_order(self):
        program = simple_two_pe_program()
        trace = simulate_dbm(program, UniformSampler(), rng=1)
        assert trace.verify(program.edges) == []

    def test_adversarial_durations(self):
        """Producer at max, everything else at min: worst case for the
        consumer-side timing proofs."""
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 41)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=41, machine="dbm"))
        program = MachineProgram.from_schedule(result.schedule)
        for producer, _consumer in list(program.edges)[:10]:
            sampler = FixedSampler(
                {producer: case.dag.latency(producer).hi}, default="min"
            )
            trace = simulate_dbm(program, sampler)
            trace.assert_sound(program.edges)


class TestSchedulerSoundnessSweep:
    """The central system test: schedules never violate dependences."""

    @pytest.mark.parametrize("machine", ["sbm", "dbm"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_durations(self, machine, seed):
        case = compile_case(GeneratorConfig(n_statements=50, n_variables=12), seed)
        result = schedule_dag(
            case.dag, SchedulerConfig(n_pes=8, seed=seed, machine=machine)
        )
        program = MachineProgram.from_schedule(result.schedule)
        simulate = simulate_sbm if machine == "sbm" else simulate_dbm
        for sampler in (MinSampler(), MaxSampler()):
            simulate(program, sampler).assert_sound(program.edges)
        for run in range(6):
            simulate(program, UniformSampler(), rng=run).assert_sound(program.edges)

    @pytest.mark.parametrize("machine", ["sbm", "dbm"])
    def test_makespan_extremes_match_static_interval(self, machine):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 77)
        result = schedule_dag(
            case.dag, SchedulerConfig(n_pes=8, seed=77, machine=machine)
        )
        program = MachineProgram.from_schedule(result.schedule)
        simulate = simulate_sbm if machine == "sbm" else simulate_dbm
        assert simulate(program, MinSampler()).makespan == result.makespan.lo
        assert simulate(program, MaxSampler()).makespan == result.makespan.hi

    def test_uniform_runs_within_static_interval(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 78)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=8, seed=78))
        program = MachineProgram.from_schedule(result.schedule)
        for run in range(10):
            span = simulate_sbm(program, UniformSampler(), rng=run).makespan
            assert result.makespan.lo <= span <= result.makespan.hi

    def test_insertion_modes_both_sound(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 79)
        for mode in ("conservative", "optimal"):
            result = schedule_dag(
                case.dag, SchedulerConfig(n_pes=8, seed=79, insertion=mode)
            )
            program = MachineProgram.from_schedule(result.schedule)
            for run in range(4):
                simulate_sbm(program, UniformSampler(), rng=run).assert_sound(
                    program.edges
                )

    def test_ablation_policies_sound(self):
        case = compile_case(GeneratorConfig(n_statements=40, n_variables=10), 80)
        for cfg in (
            SchedulerConfig(n_pes=8, assignment="roundrobin"),
            SchedulerConfig(n_pes=8, ordering="minmax"),
            SchedulerConfig(n_pes=8, lookahead=4),
            SchedulerConfig(n_pes=8, serialization_slack=4),
        ):
            result = schedule_dag(case.dag, cfg)
            program = MachineProgram.from_schedule(result.schedule)
            for run in range(3):
                simulate_sbm(program, UniformSampler(), rng=run).assert_sound(
                    program.edges
                )
