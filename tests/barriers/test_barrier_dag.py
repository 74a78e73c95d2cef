"""Tests for the barrier dag: structure, reachability, fire times, paths."""

import pytest

from repro.barriers.dag import BarrierDag
from repro.barriers.model import Barrier
from repro.timing import Interval


def make_dag(edges, n_barriers=None, initial=0):
    """Build a BarrierDag from {(u, v): (lo, hi)}."""
    ids = {initial}
    for u, v in edges:
        ids.add(u)
        ids.add(v)
    if n_barriers is not None:
        ids |= set(range(n_barriers))
    barriers = [Barrier(i, [0], is_initial=(i == initial)) for i in sorted(ids)]
    weights = {k: Interval(lo, hi) for k, (lo, hi) in edges.items()}
    return BarrierDag(barriers, weights, barriers[0])


# The figure 13 barrier embedding: x -> y (min 5, max 7 after the join
# rule), y -> z (2,2), and the "short-cut" x -> z path through PE2 that
# makes the conservative algorithm insert a needless barrier.
FIG13_EDGES = {
    (0, 1): (5, 7),   # x -> y  (join of PE0's [5,?] and PE1's [4,?])
    (1, 2): (2, 2),   # y -> z
    (0, 2): (4, 4),   # x -> z direct (the consumer processor's own chain)
}


class TestStructure:
    def test_topo_starts_with_initial(self):
        dag = make_dag(FIG13_EDGES)
        assert dag.barrier_ids[0] == 0

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            make_dag({(0, 1): (1, 1), (1, 0): (1, 1)})

    def test_unknown_barrier_in_edge(self):
        b0 = Barrier(0, [0], is_initial=True)
        with pytest.raises(ValueError):
            BarrierDag([b0], {(0, 9): Interval(1, 1)}, b0)

    def test_len_and_contains(self):
        dag = make_dag(FIG13_EDGES)
        assert len(dag) == 3 and 2 in dag and 9 not in dag

    def test_succs_preds(self):
        dag = make_dag(FIG13_EDGES)
        assert set(dag.succs(0)) == {1, 2}
        assert set(dag.preds(2)) == {0, 1}


class TestReachability:
    def test_has_path_reflexive(self):
        dag = make_dag(FIG13_EDGES)
        assert dag.has_path(1, 1)

    def test_has_path_transitive(self):
        dag = make_dag({(0, 1): (1, 1), (1, 2): (1, 1), (0, 3): (1, 1)})
        assert dag.has_path(0, 2)
        assert not dag.has_path(3, 2)

    def test_ordered(self):
        dag = make_dag({(0, 1): (1, 1), (0, 2): (1, 1)})
        assert dag.ordered(0, 1)
        assert dag.ordered(1, 0)
        assert not dag.ordered(1, 2)

    def test_descendants(self):
        dag = make_dag({(0, 1): (1, 1), (1, 2): (1, 1)})
        assert dag.descendants(0) == {1, 2}
        assert dag.descendants(2) == frozenset()


class TestFireTimes:
    def test_initial_fires_at_zero(self):
        dag = make_dag(FIG13_EDGES)
        assert dag.fire_times()[0] == Interval(0, 0)

    def test_join_over_arrival_chains(self):
        # z hears from both the direct x->z chain [4,4] and x->y->z [7,9]:
        # min fire is the max of chain minima (figure 13 semantics).
        dag = make_dag(FIG13_EDGES)
        fire = dag.fire_times()
        assert fire[1] == Interval(5, 7)
        assert fire[2] == Interval(7, 9)

    def test_diamond(self):
        dag = make_dag({(0, 1): (1, 4), (0, 2): (2, 2), (1, 3): (1, 1), (2, 3): (1, 1)})
        fire = dag.fire_times()
        assert fire[3] == Interval(3, 5)


class TestLongestPaths:
    def test_same_node_zero(self):
        dag = make_dag(FIG13_EDGES)
        assert dag.longest_path_max(1, 1) == 0
        assert dag.longest_path_min(2, 2) == 0

    def test_no_path_is_none(self):
        dag = make_dag({(0, 1): (1, 1), (0, 2): (1, 1)})
        assert dag.longest_path_max(1, 2) is None

    def test_max_path_picks_longest(self):
        dag = make_dag(FIG13_EDGES)
        # 0 -> 2: direct hi 4 vs through 1: 7 + 2 = 9
        assert dag.longest_path_max(0, 2) == 9

    def test_min_path_is_still_a_longest_path(self):
        dag = make_dag(FIG13_EDGES)
        # minimum times: direct 4 vs 5 + 2 = 7: take 7 (all must arrive)
        assert dag.longest_path_min(0, 2) == 7

    def test_paths_differ_between_bounds(self):
        dag = make_dag({(0, 1): (1, 10), (0, 2): (5, 6), (1, 3): (0, 0), (2, 3): (0, 0)})
        assert dag.longest_path_min(0, 3) == 5  # via 2
        assert dag.longest_path_max(0, 3) == 10  # via 1


def _walk_from(dag, u, use_max):
    """Reference: longest ``u -> v`` path lengths by a topological walk
    over every edge (``None`` where ``u`` does not reach ``v``)."""
    best = {u: 0}
    for bid in dag.barrier_ids:
        if bid not in best:
            continue
        for s in dag.succs(bid):
            w = dag.weight(bid, s)
            cand = best[bid] + (w.hi if use_max else w.lo)
            if cand > best.get(s, -1):
                best[s] = cand
    return {v: best.get(v) for v in dag.barrier_ids}


class TestLongestFromInitial:
    """Longest paths from b0 are read off the fire times; they must equal
    the topological walk for every barrier."""

    @staticmethod
    def _scheduled_dags(barrier_latency):
        from repro.core.scheduler import SchedulerConfig, schedule_dag
        from repro.synth.corpus import compile_case
        from repro.synth.generator import GeneratorConfig

        for machine, insertion in (("sbm", "conservative"), ("dbm", "optimal")):
            for seed in range(4):
                case = compile_case(
                    GeneratorConfig(n_statements=30, n_variables=8), seed
                )
                result = schedule_dag(
                    case.dag,
                    SchedulerConfig(
                        n_pes=8,
                        machine=machine,
                        insertion=insertion,
                        barrier_latency=barrier_latency,
                        seed=seed,
                    ),
                )
                # the evolved snapshot the scheduler kept, and a scratch one
                yield result.schedule.barrier_dag()
                yield result.schedule._scratch_barrier_dag()

    @pytest.mark.parametrize("barrier_latency", [0, 2])
    def test_matches_topological_walk(self, barrier_latency):
        checked = 0
        for dag in self._scheduled_dags(barrier_latency):
            b0 = dag.initial.id
            walk_max = _walk_from(dag, b0, use_max=True)
            walk_min = _walk_from(dag, b0, use_max=False)
            for v in dag.barrier_ids:
                assert dag.longest_path_max(b0, v) == walk_max[v]
                assert dag.longest_path_min(b0, v) == walk_min[v]
                checked += 1
        assert checked > 16  # the schedules hold inserted barriers

    def test_second_source_falls_back_to_the_walk(self):
        # Barrier 3 has no predecessor, so fire(2) counts its path too;
        # the longest path from b0 must not.
        dag = make_dag({(0, 1): (1, 1), (1, 2): (1, 1), (3, 2): (9, 9)})
        assert dag.fire_times()[2] == Interval(9, 9)
        assert dag.longest_path_max(0, 2) == 2
        assert dag.longest_path_min(0, 2) == 2
        assert dag.longest_path_max(0, 3) is None


class TestInterop:
    def test_to_networkx(self):
        graph = make_dag(FIG13_EDGES).to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.edges[(0, 1)]["weight"] == Interval(5, 7)

    def test_render_mentions_barriers(self):
        text = make_dag(FIG13_EDGES).render()
        assert "b0" in text and "fire" in text
