"""Tests for the Schedule data structure: streams, navigation, timing."""

import pytest

from repro.timing import Interval
from repro.core.schedule import Schedule
from repro.ir.dag import ENTRY, InstructionDAG

from tests.conftest import chain_dag, diamond_dag


@pytest.fixture
def sched():
    return Schedule(diamond_dag(), n_pes=3)


class TestStreams:
    def test_streams_start_with_b0(self, sched):
        for pe in range(3):
            assert sched.streams[pe][0] is sched.initial_barrier
        assert sched.initial_barrier.participants == {0, 1, 2}

    def test_append_and_position(self, sched):
        sched.append_instruction(0, "a")
        sched.append_instruction(1, "b")
        assert sched.position_of("a") == (0, 1)
        assert sched.processor_of("b") == 1
        assert sched.instructions_on(0) == ["a"]
        assert sched.last_instruction_on(2) is None

    def test_double_schedule_rejected(self, sched):
        sched.append_instruction(0, "a")
        with pytest.raises(ValueError):
            sched.append_instruction(1, "a")

    def test_dummy_rejected(self, sched):
        with pytest.raises(ValueError):
            sched.append_instruction(0, ENTRY)

    def test_unknown_node_rejected(self, sched):
        with pytest.raises(ValueError):
            sched.append_instruction(0, "zzz")

    def test_used_processors(self, sched):
        assert sched.used_processors() == 0
        sched.append_instruction(1, "a")
        assert sched.used_processors() == 1


class TestBarrierNavigation:
    def test_insert_and_navigate(self, sched):
        sched.append_instruction(0, "a")
        sched.append_instruction(1, "c")
        bar = sched.insert_barrier({0: 2, 1: 1})
        assert bar.participants == {0, 1}
        # on PE0 the barrier follows 'a'; on PE1 it precedes 'c'
        assert sched.last_barrier_before(0, sched.position_of("a")[1]) is sched.initial_barrier
        assert sched.next_barrier_after(0, sched.position_of("a")[1]) is bar
        pe, idx = sched.position_of("c")
        assert sched.last_barrier_before(pe, idx) is bar

    def test_barrier_counts_exclude_initial(self, sched):
        assert sched.n_barriers == 0
        sched.append_instruction(0, "a")
        sched.insert_barrier({0: 2, 1: 1})
        assert sched.n_barriers == 1
        assert len(sched.barriers(include_initial=True)) == 2

    def test_bad_barrier_index(self, sched):
        with pytest.raises(ValueError):
            sched.insert_barrier({0: 0})  # before b0
        with pytest.raises(ValueError):
            sched.insert_barrier({0: 5})

    def test_region_after(self, sched):
        sched.append_instruction(0, "a")
        sched.append_instruction(0, "b")
        bar = sched.insert_barrier({0: 2, 1: 1})
        assert sched.region_after(0, sched.initial_barrier) == ["a"]
        assert sched.region_after(0, bar) == ["b"]

    def test_replace_barrier_cannot_touch_initial(self, sched):
        bar = sched.insert_barrier({0: 1})
        with pytest.raises(ValueError):
            sched.replace_barrier(sched.initial_barrier, bar)


class TestDeltas:
    def test_delta_through_and_before(self):
        dag = chain_dag([(1, 4), (1, 1), (2, 3)])
        sched = Schedule(dag, 1)
        for node in (0, 1, 2):
            sched.append_instruction(0, node)
        assert sched.delta_through(1) == Interval(2, 5)
        assert sched.delta_before(0, sched.position_of(2)[1]) == Interval(2, 5)
        assert sched.delta_before(0, 1) == Interval(0, 0)

    def test_delta_resets_at_barrier(self):
        dag = chain_dag([(1, 4), (1, 1)])
        sched = Schedule(dag, 1)
        sched.append_instruction(0, 0)
        sched.insert_barrier({0: 2})
        sched.append_instruction(0, 1)
        assert sched.delta_through(1) == Interval(1, 1)


class TestTiming:
    def test_global_times_single_pe(self):
        dag = chain_dag([(1, 4), (1, 1)])
        sched = Schedule(dag, 1)
        sched.append_instruction(0, 0)
        sched.append_instruction(0, 1)
        assert sched.global_start(0) == Interval(0, 0)
        assert sched.global_finish(0) == Interval(1, 4)
        assert sched.global_finish(1) == Interval(2, 5)
        assert sched.completion(0) == Interval(2, 5)
        assert sched.makespan() == Interval(2, 5)

    def test_barrier_resets_skew(self):
        sched = Schedule(diamond_dag(), 2)
        sched.append_instruction(0, "a")  # [1,4]
        bar = sched.insert_barrier({0: 2, 1: 1})
        sched.append_instruction(1, "b")  # [1,1] after the barrier
        fire = sched.fire_times()
        assert fire[bar.id] == Interval(1, 4)
        assert sched.global_start("b") == Interval(1, 4)
        assert sched.global_finish("b") == Interval(2, 5)

    def test_makespan_joins_processors(self):
        sched = Schedule(diamond_dag(), 2)
        sched.append_instruction(0, "a")
        sched.append_instruction(1, "c")
        assert sched.makespan() == Interval(16, 24)

    def test_two_level_cache_maintenance(self):
        # Appends are *content* mutations: the instruction lands in the
        # open region after the stream's last barrier, which no dag edge
        # covers, so the cached dag stays valid (and identical).  Barrier
        # insertion is a *structure* mutation: the dag must change.
        sched = Schedule(diamond_dag(), 2)
        bd1 = sched.barrier_dag()
        assert sched.barrier_dag() is bd1  # cached
        sched.append_instruction(0, "a")  # content-only change
        assert sched.barrier_dag() is bd1  # still valid: no edge touched
        sched.insert_barrier({0: 2, 1: 1})
        bd2 = sched.barrier_dag()
        assert bd2 is not bd1
        assert len(bd2) == 2


class TestHappensBefore:
    def test_stream_order_in_hb(self):
        dag = chain_dag([(1, 1), (1, 1)])
        sched = Schedule(dag, 2)
        sched.append_instruction(0, 0)
        sched.append_instruction(0, 1)
        assert sched.hb_reachable(("n", 0), ("n", 1))
        assert not sched.hb_reachable(("n", 1), ("n", 0))

    def test_data_edges_in_hb(self):
        dag = chain_dag([(1, 1), (1, 1)])
        sched = Schedule(dag, 2)
        sched.append_instruction(0, 0)
        sched.append_instruction(1, 1)  # consumer on the other PE
        assert sched.hb_reachable(("n", 0), ("n", 1))

    def test_barrier_ordering_through_instructions(self):
        dag = chain_dag([(1, 1), (1, 1)])
        sched = Schedule(dag, 2)
        sched.append_instruction(0, 0)
        b1 = sched.insert_barrier({0: 2, 1: 1})
        sched.append_instruction(1, 1)
        b2 = sched.insert_barrier({1: 3})
        assert sched.hb_barrier_ordered(b1.id, b2.id)
        desc = sched.hb_barrier_descendants()
        assert b2.id in desc[b1.id]

    def test_insertion_cycle_detection(self):
        dag = InstructionDAG.build(
            {
                "g": Interval(1, 1),
                "i": Interval(1, 1),
                "x": Interval(1, 1),
                "y": Interval(1, 1),
            },
            [("g", "i"), ("x", "y")],
        )
        sched = Schedule(dag, 2)
        sched.append_instruction(0, "g")
        sched.append_instruction(0, "x")
        sched.append_instruction(1, "y")
        sched.append_instruction(1, "i")
        # Barrier after g (before x) on PE0 and before i (after y) on PE1
        # would demand y-before-x... x -> y is a data edge, so the cycle
        # detector must reject placements that order y's region first.
        assert sched.insertion_creates_hb_cycle({0: 2, 1: 2})
        # After x on PE0 and before i on PE1 is fine.
        assert not sched.insertion_creates_hb_cycle({0: 3, 1: 2})

    def test_insertion_straddling_shared_barrier_is_cyclic(self):
        dag = InstructionDAG.build(
            {"a": Interval(1, 1), "b": Interval(1, 1)}, []
        )
        sched = Schedule(dag, 2)
        sched.append_instruction(0, "a")
        sched.append_instruction(1, "b")
        sched.insert_barrier({0: 2, 1: 2})
        # The shared barrier sits at index 2 of both streams.  Placing a
        # new barrier *before* it on PE0 but *after* it on PE1 would
        # order the pair both ways -- a two-node cycle the pairwise
        # reachability scan only sees when pred and succ coincide.
        assert sched.insertion_creates_hb_cycle({0: 2, 1: 3})
        assert not sched.insertion_creates_hb_cycle({0: 2, 1: 2})
