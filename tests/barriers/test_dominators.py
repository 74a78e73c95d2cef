"""Tests for the dominator tree over barrier dags."""

import random

import pytest

from repro.barriers.dominators import DominatorTree
from repro.barriers.model import Barrier
from repro.timing import Interval

from tests.barriers.test_barrier_dag import make_dag


def random_reachable_dag(rng, n_nodes, p_edge=0.3):
    """A random dag on ids ``0..n_nodes-1`` where every node is reachable
    from the initial barrier 0 (every non-root has at least one pred)."""
    edges = {}
    for v in range(1, n_nodes):
        for u in range(v):
            if rng.random() < p_edge:
                lo = rng.randint(0, 5)
                edges[(u, v)] = (lo, lo + rng.randint(0, 5))
        if not any(w[1] == v for w in edges):
            edges[(rng.randrange(v), v)] = (1, 1)
    return make_dag(edges, n_barriers=n_nodes)


def dominator_sets(dag):
    """Textbook iterate-to-fixpoint reference: Dom(v) = {v} | AND Dom(preds)."""
    ids = dag.barrier_ids
    full = set(ids)
    dom = {bid: (full if dag.preds(bid) else {bid}) for bid in ids}
    dom[ids[0]] = {ids[0]}
    changed = True
    while changed:
        changed = False
        for v in ids:
            preds = dag.preds(v)
            if not preds:
                continue
            new = set.intersection(*(dom[p] for p in preds)) | {v}
            if new != dom[v]:
                dom[v] = new
                changed = True
    return dom


def diamond():
    #      0
    #    /   \
    #   1     2
    #    \   /
    #      3 -- 4
    return make_dag(
        {(0, 1): (1, 1), (0, 2): (1, 1), (1, 3): (1, 1), (2, 3): (1, 1), (3, 4): (1, 1)}
    )


def chain():
    return make_dag({(0, 1): (1, 1), (1, 2): (1, 1), (2, 3): (1, 1)})


class TestIdoms:
    def test_chain_idoms(self):
        tree = DominatorTree(chain())
        assert tree.idom(1) == 0
        assert tree.idom(2) == 1
        assert tree.idom(3) == 2
        assert tree.idom(0) is None

    def test_diamond_join_dominated_by_fork(self):
        tree = DominatorTree(diamond())
        assert tree.idom(3) == 0  # neither arm dominates the join
        assert tree.idom(4) == 3

    def test_depths(self):
        tree = DominatorTree(diamond())
        assert tree.depth(0) == 0
        assert tree.depth(1) == tree.depth(2) == 1
        assert tree.depth(3) == 1
        assert tree.depth(4) == 2


class TestDominates:
    def test_every_barrier_dominates_itself(self):
        tree = DominatorTree(diamond())
        for bid in range(5):
            assert tree.dominates(bid, bid)

    def test_initial_dominates_all(self):
        tree = DominatorTree(diamond())
        for bid in range(5):
            assert tree.dominates(0, bid)

    def test_arm_does_not_dominate_join(self):
        tree = DominatorTree(diamond())
        assert not tree.dominates(1, 3)
        assert not tree.dominates(2, 3)

    def test_chain_dominance_is_total(self):
        tree = DominatorTree(chain())
        assert tree.dominates(1, 3)
        assert not tree.dominates(3, 1)


class TestNearestCommonDominator:
    def test_siblings(self):
        tree = DominatorTree(diamond())
        assert tree.nearest_common_dominator(1, 2) == 0

    def test_ancestor_pair(self):
        tree = DominatorTree(chain())
        assert tree.nearest_common_dominator(1, 3) == 1

    def test_same_node(self):
        tree = DominatorTree(diamond())
        assert tree.nearest_common_dominator(3, 3) == 3

    def test_join_and_arm(self):
        tree = DominatorTree(diamond())
        assert tree.nearest_common_dominator(3, 1) == 0

    def test_as_mapping(self):
        tree = DominatorTree(chain())
        mapping = tree.as_mapping()
        assert mapping[0] is None and mapping[3] == 2


class TestValidation:
    def test_unreachable_barrier_rejected(self):
        # barrier 5 exists but has no in-edges and is not initial
        dag = make_dag({(0, 1): (1, 1)}, n_barriers=3)
        with pytest.raises(ValueError):
            DominatorTree(dag)


def spliced(rng, dag):
    """``dag`` after inserting barrier ``len(dag)`` into a random edge,
    with a few extra in-edges -- the exact shape Schedule.insert_barrier
    makes."""
    n = len(dag)
    edge = rng.choice(list(dag.edges()))
    edits = {
        (edge.src, edge.dst): None,
        (edge.src, n): Interval(1, 2),
        (n, edge.dst): Interval(0, 1),
    }
    for extra in rng.sample(range(n), k=min(2, n)):
        if extra not in (edge.src, edge.dst) and not dag.has_path(
            edge.dst, extra
        ):
            edits[(extra, n)] = Interval(0, 3)
    return dag.evolved_insert(Barrier(n, [0]), edits)


def random_trees(seed):
    """A random reachable dag with its dominator tree built from scratch,
    then that dag after a splice with the tree evolved from the first."""
    rng = random.Random(seed)
    dag = random_reachable_dag(rng, rng.randint(3, 14))
    fresh = DominatorTree(dag)
    yield dag, fresh
    new_dag = spliced(rng, dag)
    yield new_dag, DominatorTree.evolved(new_dag, fresh, (len(dag),))


class TestRandomizedAgainstReferences:
    """The idom-walking ``dominates``, ``nearest_common_dominator`` and
    ``depth`` against brute-force references on random dags, for trees
    built from scratch and trees evolved after a barrier insert."""

    @pytest.mark.parametrize("seed", range(15))
    def test_dominates_matches_fixpoint_sets(self, seed):
        for dag, tree in random_trees(seed):
            dom = dominator_sets(dag)
            for x in dag.barrier_ids:
                for y in dag.barrier_ids:
                    assert tree.dominates(x, y) == (x in dom[y]), (x, y)

    @pytest.mark.parametrize("seed", range(15))
    def test_depth_matches_fixpoint_sets(self, seed):
        for dag, tree in random_trees(50 + seed):
            dom = dominator_sets(dag)
            for v in dag.barrier_ids:
                # every strict dominator is one idom step further up
                assert tree.depth(v) == len(dom[v]) - 1, v

    @pytest.mark.parametrize("seed", range(15))
    def test_nca_matches_chain_walk(self, seed):
        for dag, tree in random_trees(100 + seed):

            def chain(bid):
                out = [bid]
                while tree.idom(out[-1]) is not None:
                    out.append(tree.idom(out[-1]))
                return out

            for x in dag.barrier_ids:
                ancestors_x = chain(x)
                for y in dag.barrier_ids:
                    # deepest node on both idom chains
                    expected = next(
                        a for a in ancestors_x if a in set(chain(y))
                    )
                    assert tree.nearest_common_dominator(x, y) == expected, (
                        x,
                        y,
                    )


class TestEvolved:
    """Incremental reconstruction after a dag edit equals a fresh build."""

    @pytest.mark.parametrize("seed", range(20))
    def test_evolved_insert_matches_fresh(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        dag = random_reachable_dag(rng, n)
        prev = DominatorTree(dag)
        new_dag = spliced(rng, dag)

        evolved = DominatorTree.evolved(new_dag, prev, (n,))
        fresh = DominatorTree(new_dag)
        assert evolved.as_mapping() == fresh.as_mapping()
        for x in new_dag.barrier_ids:
            for y in new_dag.barrier_ids:
                assert evolved.dominates(x, y) == fresh.dominates(x, y)
                assert evolved.nearest_common_dominator(
                    x, y
                ) == fresh.nearest_common_dominator(x, y)

    def test_evolved_with_empty_affected_rebuilds(self):
        dag = diamond()
        prev = DominatorTree(dag)
        again = DominatorTree.evolved(dag, prev, ())
        assert again.as_mapping() == prev.as_mapping()
