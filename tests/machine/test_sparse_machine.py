"""The machine layer's idle-PE class: edge cases and a width gate.

``MachineProgram.from_schedule`` lowers only the PEs a schedule uses;
every other stream is one shared start-wait tuple, and ``run_machine``
keeps per-PE state only for the PEs whose stream is more than that.
Idle PEs block on ``b0`` at clock 0 and retire when it fires.  The
expected traces and messages below were captured before that change, so
each edge case (no active PE, one PE, every PE active, an idle PE outside
``b0``'s mask, ``b0`` fired twice, observability output) must behave
exactly as the dense engine did.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.barriers.mask import BarrierMask
from repro.core.schedule import Schedule
from repro.faults import FaultPlan
from repro.faults.model import FaultyController
from repro.io import program_from_json, program_to_json
from repro.ir.dag import InstructionDAG
from repro.machine.dbm import DBMController, simulate_dbm
from repro.machine.durations import MaxSampler, UniformSampler
from repro.machine.engine import run_machine
from repro.machine.program import BarrierRef, MachineOp, MachineProgram, idle_stream
from repro.machine.sbm import SBMController, simulate_sbm
from repro.machine.trace import DeadlockError
from repro.obs.metrics import collect_metrics
from repro.obs.spans import collect_trace
from repro.timing import Interval

SIMULATORS = {"sbm": simulate_sbm, "dbm": simulate_dbm}
CONTROLLERS = {"sbm": SBMController, "dbm": DBMController}


def op(name: str, lo: int, hi: int | None = None) -> MachineOp:
    return MachineOp(name, Interval(lo, lo if hi is None else hi), name)


def hand_program(n_pes, live_streams, masks, order) -> MachineProgram:
    """``live_streams`` maps PE -> stream; every other PE is idle (the
    shared start-wait stream)."""
    streams = [live_streams.get(pe, idle_stream(0)) for pe in range(n_pes)]
    return MachineProgram(
        n_pes=n_pes,
        streams=tuple(tuple(s) for s in streams),
        masks={bid: BarrierMask.from_pes(pes, n_pes) for bid, pes in masks.items()},
        barrier_order=tuple(order),
        initial_barrier_id=0,
        edges=(),
    )


def wide_schedule(n_pes: int) -> Schedule:
    """Four active PEs (3, 9, 10, 40) with two barriers, at any width > 40."""
    latencies = {
        "a": Interval(1, 3), "b": Interval(2, 2), "c": Interval(1, 4),
        "d": Interval(2, 5), "e": Interval(1, 1), "f": Interval(3, 3),
        "g": Interval(1, 2), "h": Interval(2, 4),
    }
    edges = [("a", "c"), ("b", "d"), ("c", "e"), ("d", "f")]
    schedule = Schedule(InstructionDAG.build(latencies, edges), n_pes)
    for pe, node in ((3, "a"), (9, "b"), (10, "c"), (40, "d")):
        schedule.append_instruction(pe, node)
    schedule.insert_barrier({3: 2, 10: 1, 9: 2})
    schedule.insert_barrier({9: 3, 40: 1})
    for pe, node in ((10, "e"), (40, "f"), (3, "g"), (9, "h")):
        schedule.append_instruction(pe, node)
    return schedule


def trace_tuple(trace):
    return (
        dict(trace.start),
        dict(trace.finish),
        list(trace.barrier_fire.items()),
        trace.pe_finish,
        list(trace.start),
    )


# -- traces ------------------------------------------------------------------


class TestNoActivePE:
    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_empty_block_retires_every_pe_at_b0(self, machine):
        empty = Schedule(InstructionDAG.build({}, ()), 1024)
        program = MachineProgram.from_schedule(empty)
        trace = SIMULATORS[machine](program, MaxSampler())
        assert trace.barrier_fire == {0: 0}
        assert trace.pe_finish == (0,) * 1024
        assert trace.start == {} and trace.finish == {}

    @pytest.mark.parametrize("machine", sorted(CONTROLLERS))
    def test_idle_pes_finish_at_jittered_b0(self, machine):
        empty = Schedule(InstructionDAG.build({}, ()), 1024)
        program = MachineProgram.from_schedule(empty)
        rng = random.Random(5)
        plan = FaultPlan(barrier_jitter=3)
        controller = FaultyController(CONTROLLERS[machine](program), plan, rng)
        trace = run_machine(program, controller, machine, MaxSampler(), rng)
        assert trace.barrier_fire == {0: 2}
        assert trace.pe_finish == (2,) * 1024
        assert controller.jitter == {0: 2}


class TestNarrowAndFull:
    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_single_idle_pe(self, machine):
        program = hand_program(1, {}, {0: [0]}, [0])
        trace = SIMULATORS[machine](program, MaxSampler())
        assert trace_tuple(trace) == ({}, {}, [(0, 0)], (0,), [])

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_single_active_pe(self, machine):
        b0 = BarrierRef(0)
        program = hand_program(1, {0: [b0, op("x", 1, 3), op("y", 2)]}, {0: [0]}, [0])
        trace = SIMULATORS[machine](program, UniformSampler(), 11)
        assert trace_tuple(trace) == EXPECTED_SINGLE_ACTIVE[machine]

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_every_pe_active(self, machine):
        b0, b1, b2 = BarrierRef(0), BarrierRef(1), BarrierRef(2)
        streams = {
            0: [b0, op("a", 1, 4), b1, op("e", 2, 3)],
            1: [b0, op("b", 2, 5), b1, b2],
            2: [b0, op("c", 1, 2), b2, op("f", 1, 6)],
            3: [op("d", 3, 4), b0, op("g", 1, 1)],
        }
        masks = {0: [0, 1, 2, 3], 1: [0, 1], 2: [1, 2]}
        program = hand_program(4, streams, masks, [0, 1, 2])
        trace = SIMULATORS[machine](program, UniformSampler(), 3)
        assert trace_tuple(trace) == EXPECTED_EVERY_ACTIVE[machine]

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_wide_lowering_matches_dense_trace(self, machine):
        program = MachineProgram.from_schedule(wide_schedule(64))
        trace = SIMULATORS[machine](program, UniformSampler(), 2)
        assert trace_tuple(trace) == EXPECTED_WIDE64[machine]


class TestLowering:
    def test_only_active_streams_are_built(self):
        program = MachineProgram.from_schedule(wide_schedule(1024))
        assert len(program.streams) == 1024
        assert program.live_pes == (3, 9, 10, 40)
        idle = [pe for pe in range(1024) if pe not in program.live_pes]
        assert all(program.streams[pe] is idle_stream(0) for pe in idle)
        assert program.masks[0] == BarrierMask.full(1024)
        assert program.n_instructions == 8

    def test_loaded_program_runs_every_pe_individually(self):
        # A JSON-loaded program has its own (b0,) tuple per idle PE, so
        # every PE is live; the dense run must equal the sparse one.
        program = MachineProgram.from_schedule(wide_schedule(64))
        loaded = program_from_json(program_to_json(program))
        assert loaded == program and loaded.live_pes == tuple(range(64))
        for simulate in SIMULATORS.values():
            assert trace_tuple(simulate(loaded, UniformSampler(), 2)) == trace_tuple(
                simulate(program, UniformSampler(), 2)
            )


# -- diagnostics ---------------------------------------------------------------


class TestDiagnostics:
    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_idle_pe_outside_b0_mask(self, machine):
        b0, b1 = BarrierRef(0), BarrierRef(1)
        streams = {0: [b0, op("x", 1), b1], 1: [b0, op("y", 2), b1]}
        program = hand_program(5, streams, {0: [0, 1, 3], 1: [0, 1]}, [0, 1])
        with pytest.raises(DeadlockError) as exc:
            SIMULATORS[machine](program, MaxSampler())
        assert str(exc.value) == EXPECTED_OUTSIDE_B0[machine]

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_active_pe_outside_b0_mask(self, machine):
        b0, b1 = BarrierRef(0), BarrierRef(1)
        streams = {0: [b0, op("x", 1), b1], 1: [b0, op("y", 2), b1]}
        program = hand_program(5, streams, {0: [0, 2, 3, 4], 1: [0, 1]}, [0, 1])
        with pytest.raises(DeadlockError) as exc:
            SIMULATORS[machine](program, MaxSampler())
        assert str(exc.value) == EXPECTED_LIVE_OUTSIDE_B0[machine]

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_active_pe_that_never_waits_on_b0(self, machine):
        b0 = BarrierRef(0)
        streams = {1: [op("x", 1)], 2: [b0, op("y", 2)]}
        program = hand_program(4, streams, {0: [0, 1, 2, 3]}, [0])
        with pytest.raises(DeadlockError) as exc:
            SIMULATORS[machine](program, MaxSampler())
        assert str(exc.value) == EXPECTED_SKIPS_B0[machine]

    @pytest.mark.parametrize("live_pe", [0, 5])
    def test_b0_fired_twice(self, live_pe):
        b0, b1 = BarrierRef(0), BarrierRef(1)
        program = hand_program(
            8, {live_pe: [b0, op("x", 2), b1]}, {0: range(8), 1: [live_pe]}, [0, 1]
        )
        with pytest.raises(DeadlockError) as exc:
            run_machine(program, _RepeatB0(), "sbm", MaxSampler())
        assert str(exc.value) == EXPECTED_B0_TWICE[live_pe]

    @pytest.mark.parametrize("waits_first", [False, True])
    def test_b0_fired_before_a_live_pe_arrives(self, waits_first):
        # Idle PEs 0, 1, 3 and 4 precede the retired PE 5; only PE 5 may
        # be named, as when every PE was released one by one.
        b0 = BarrierRef(0)
        streams = {5: [op("x", 2)]}
        if waits_first:
            streams[2] = [b0, op("y", 1)]
        program = hand_program(8, streams, {0: range(8)}, [0])
        with pytest.raises(DeadlockError) as exc:
            run_machine(program, _RepeatB0(), "sbm", MaxSampler())
        assert str(exc.value) == (
            "sbm: barrier b0 fired but PE 5 is not waiting on it"
        )

    def test_wide_b0_fired_twice(self):
        program = MachineProgram.from_schedule(wide_schedule(1024))
        with pytest.raises(DeadlockError) as exc:
            run_machine(program, _RepeatB0(), "dbm", MaxSampler())
        assert str(exc.value) == (
            "dbm: barrier b0 fired but PE 0 is not waiting on it"
        )

    def test_release_including_an_idle_pe(self):
        b0, b1 = BarrierRef(0), BarrierRef(1)
        program = hand_program(
            4, {0: [b0, op("x", 2), b1]}, {0: range(4), 1: [0, 2]}, [0, 1]
        )
        controller = _Scripted([(0, 0), (1, 2)])
        with pytest.raises(DeadlockError) as exc:
            run_machine(program, controller, "sbm", MaxSampler())
        assert str(exc.value) == (
            "sbm: barrier b1 fired but PE 2 is not waiting on it"
        )


class _RepeatB0:
    """Fires the start barrier on every call, arrivals or not."""

    def select(self, waiting, arrival):
        return 0, 0


class _Scripted:
    def __init__(self, choices):
        self.choices = list(choices)

    def select(self, waiting, arrival):
        return self.choices.pop(0) if self.choices else None


# -- readiness ---------------------------------------------------------------


def _one_barrier_program(n_pes: int, pes) -> MachineProgram:
    """``b1`` spans ``pes``; every other PE is idle."""
    b0, b1 = BarrierRef(0), BarrierRef(1)
    return hand_program(
        n_pes, {pe: [b0, b1] for pe in pes}, {0: range(n_pes), 1: pes}, [0, 1]
    )


class TestFlatReadiness:
    """The controllers' participant check against the flat mask model."""

    @pytest.mark.parametrize("machine", sorted(CONTROLLERS))
    def test_full_1024_matches_flat_model(self, machine):
        rng = random.Random(42)
        pes = sorted(rng.sample(range(1024), 300))
        program = _one_barrier_program(1024, pes)
        mask = program.masks[1]
        controller = CONTROLLERS[machine](program)
        if machine == "sbm":
            controller.head = 1  # b0 has fired
        waiting, arrival = {}, {}
        arrived = BarrierMask.empty(1024)
        for t, pe in enumerate(rng.sample(pes, len(pes))):
            waiting[pe], arrival[pe] = 1, t
            arrived = arrived.with_wait(pe)
            ready = mask.is_subset_of(arrived)
            choice = controller.select(dict(waiting), dict(arrival))
            assert (choice is not None) == ready
        assert choice == (1, len(pes) - 1)

    @pytest.mark.parametrize("machine", sorted(CONTROLLERS))
    def test_multi_level_word_boundaries(self, machine):
        pes = [0, 63, 64, 127, 128, 129]
        program = _one_barrier_program(130, pes)
        controller = CONTROLLERS[machine](program)
        if machine == "sbm":
            controller.head = 1
        waiting = {pe: 1 for pe in pes[:-1]}
        arrival = {pe: pe for pe in pes}
        assert controller.select(waiting, arrival) is None
        waiting[129] = 1
        assert controller.select(waiting, arrival) == (1, 129)

    def test_empty_mask_is_vacuously_ready(self):
        program = MachineProgram(
            n_pes=4,
            streams=((BarrierRef(0),),) * 4,
            masks={0: BarrierMask.full(4), 1: BarrierMask.empty(4)},
            barrier_order=(0, 1),
            initial_barrier_id=0,
            edges=(),
        )
        controller = SBMController(program, head=1, last_fire=6)
        assert controller.select({}, {}) == (1, 6)

    @pytest.mark.parametrize("machine", sorted(CONTROLLERS))
    def test_full_mask_needs_every_pe(self, machine):
        program = _one_barrier_program(8, [2])
        controller = CONTROLLERS[machine](program)
        waiting = dict.fromkeys(range(8), 0)
        arrival = {pe: pe for pe in range(8)}
        assert controller.select(waiting, arrival) == (0, 7)
        del waiting[5]
        assert CONTROLLERS[machine](program).select(waiting, arrival) is None
        waiting[5] = 1
        assert CONTROLLERS[machine](program).select(waiting, arrival) is None


# -- observability ---------------------------------------------------------------


@pytest.mark.parametrize("machine", sorted(SIMULATORS))
def test_release_metrics_and_events(machine):
    program = MachineProgram.from_schedule(wide_schedule(1024))
    with collect_metrics() as reg, collect_trace() as tracer:
        SIMULATORS[machine](program, UniformSampler(), 4)
    metrics = reg.as_dict()
    assert metrics["counters"]["engine.barrier_releases"] == 3
    assert metrics["histograms"]["engine.release_waiting"] == EXPECTED_WAITING[machine]
    events = [(e.name, e.args) for e in tracer.events]
    assert events == EXPECTED_EVENTS[machine]


# -- loader validation -------------------------------------------------------


class TestUnknownBarrier:
    def _args(self, streams, masks):
        return dict(
            n_pes=len(streams),
            streams=tuple(streams),
            masks=masks,
            barrier_order=tuple(masks),
            initial_barrier_id=0,
            edges=(),
        )

    def test_constructor_names_pe_and_barrier(self):
        b0 = BarrierRef(0)
        streams = [(b0, op("x", 1)), (b0, BarrierRef(9)), (b0,)]
        with pytest.raises(ValueError, match=r"PE 1 waits on barrier b9"):
            MachineProgram(**self._args(streams, {0: BarrierMask.full(3)}))

    def test_idle_stream_without_start_mask(self):
        streams = [(BarrierRef(0),)] * 3
        with pytest.raises(ValueError, match=r"PE 0 waits on barrier b0"):
            MachineProgram(**self._args(streams, {}))

    def test_program_from_json(self):
        program = MachineProgram.from_schedule(wide_schedule(64))
        data = program_to_json(program)
        data["streams"][9].append({"wait": 7})
        with pytest.raises(ValueError, match=r"PE 9 waits on barrier b7"):
            program_from_json(data)

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_simulators_never_see_it(self, machine):
        # The DBM would die with a bare KeyError and the SBM report a
        # deadlock: the loader must stop the program first.
        b0 = BarrierRef(0)
        streams = [(b0, op("x", 1), BarrierRef(9)), (b0,)]
        with pytest.raises(ValueError, match=r"PE 0 waits on barrier b9"):
            SIMULATORS[machine](
                MachineProgram(**self._args(streams, {0: BarrierMask.full(2)})),
                MaxSampler(),
            )


# -- width gate ----------------------------------------------------------------


def python_calls(fn, *args) -> int:
    """Python-level function calls (profile "call" events) made by ``fn``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def python_lines(fn, *args) -> int:
    """Python source lines (trace "line" events) executed by ``fn``: a loop
    over every PE shows here even when its body makes only C calls."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestWidthGate:
    """The machine layer's Python-level work follows the PEs a block
    uses: the same four active streams cost the same number of calls and
    executed lines at 64 and at 1024 PEs.  A count is deterministic,
    unlike a timing ratio.  Each width runs once before it is counted, so
    module-level caches another test may or may not have filled do not
    enter the count; every counted run gets a fresh schedule or program,
    so per-block work does."""

    def test_from_schedule(self):
        for counter in (python_calls, python_lines):
            counts = []
            for n_pes in (64, 1024):
                MachineProgram.from_schedule(wide_schedule(n_pes))
                schedule = wide_schedule(n_pes)
                counts.append(counter(MachineProgram.from_schedule, schedule))
            assert counts[0] == counts[1], counter.__name__

    @pytest.mark.parametrize("machine", sorted(SIMULATORS))
    def test_simulate(self, machine):
        simulate = SIMULATORS[machine]
        for counter in (python_calls, python_lines):
            counts = []
            for n_pes in (64, 1024):
                simulate(
                    MachineProgram.from_schedule(wide_schedule(n_pes)),
                    UniformSampler(),
                    random.Random(1),
                )
                program = MachineProgram.from_schedule(wide_schedule(n_pes))
                counts.append(
                    counter(simulate, program, UniformSampler(), random.Random(1))
                )
            assert counts[0] == counts[1], counter.__name__


# -- expected values, captured with the dense engine ------------------------

EXPECTED_SINGLE_ACTIVE = dict.fromkeys(
    SIMULATORS, ({"x": 0, "y": 2}, {"x": 2, "y": 4}, [(0, 0)], (4,), ["x", "y"])
)

EXPECTED_EVERY_ACTIVE = dict.fromkeys(
    SIMULATORS,
    (
        {"a": 3, "b": 3, "c": 3, "d": 0, "e": 7, "f": 7, "g": 3},
        {"a": 5, "b": 7, "c": 5, "d": 3, "e": 9, "f": 12, "g": 4},
        [(0, 3), (1, 7), (2, 7)],
        (9, 7, 12, 4),
        ["d", "a", "b", "c", "g", "e", "f"],
    ),
)

_WIDE64_FINISH = [0] * 64
_WIDE64_FINISH[3], _WIDE64_FINISH[9], _WIDE64_FINISH[10], _WIDE64_FINISH[40] = 3, 5, 4, 8
EXPECTED_WIDE64 = dict.fromkeys(
    SIMULATORS,
    (
        {"a": 0, "b": 0, "c": 2, "d": 2, "e": 3, "f": 5, "g": 2, "h": 2},
        {"a": 1, "b": 2, "c": 3, "d": 5, "e": 4, "f": 8, "g": 3, "h": 5},
        [(0, 0), (1, 2), (2, 2)],
        tuple(_WIDE64_FINISH),
        ["a", "b", "g", "c", "e", "h", "d", "f"],
    ),
)

EXPECTED_OUTSIDE_B0 = {
    "dbm": "dbm: no barrier can fire; waiting: {2: 'b0', 4: 'b0'}",
    "sbm": "sbm: no barrier can fire; waiting: {2: 'b0', 4: 'b0'}",
}

EXPECTED_LIVE_OUTSIDE_B0 = {
    "dbm": "dbm: no barrier can fire; waiting: {1: 'b0', 0: 'b1'}",
    "sbm": (
        "sbm: no barrier can fire; waiting: {1: 'b0', 0: 'b1'}; "
        "pending barrier b1 still needs PEs [1]"
    ),
}

EXPECTED_SKIPS_B0 = {
    "dbm": "dbm: no barrier can fire; waiting: {0: 'b0', 2: 'b0', 3: 'b0'}",
    "sbm": (
        "sbm: no barrier can fire; waiting: {0: 'b0', 2: 'b0', 3: 'b0'}; "
        "pending barrier b0 still needs PEs [1]"
    ),
}

EXPECTED_B0_TWICE = {
    0: "sbm: barrier b0 fired but PE 0 is not waiting on it",
    5: "sbm: barrier b0 fired but PE 0 is not waiting on it",
}

EXPECTED_WAITING = dict.fromkeys(
    SIMULATORS, {"count": 3, "max": 1024, "min": 2, "total": 1030.0}
)

EXPECTED_EVENTS = {
    machine: [
        ("engine.release",
         {"machine": machine, "barrier": 0, "fire_time": 0, "waiting": 1024}),
        ("engine.release",
         {"machine": machine, "barrier": 1, "fire_time": 2, "waiting": 4}),
        ("engine.release",
         {"machine": machine, "barrier": 2, "fire_time": 2, "waiting": 2}),
    ]
    for machine in SIMULATORS
}
