"""Dominator tree over the barrier dag (paper section 4.4).

"A barrier x *dominates* barrier y, written x dom y, if every path from
the initial node of the barrier dag to y goes through x.  With this
definition, the initial barrier dominates all other barriers in the dag
and every barrier dominates itself."

The conservative insertion algorithm needs the *nearest common dominating
barrier* ``CommonDom(g, i)`` of ``LastBar(g)`` and ``LastBar(i)``: the
last synchronization point shared by the producer's and consumer's
processors, from which relative timing can be propagated.  That is the
nearest common ancestor of the two barriers in the dominator tree.

Immediate dominators are computed with the Cooper-Harvey-Kennedy
*intersect* over the predecessors of each node.  Because the barrier dag
is acyclic and nodes are processed in topological order, every
predecessor's dominator chain is already final when a node is reached,
so a **single pass** computes the exact dominator tree -- no fixpoint
iteration is needed (the classic CHK loop exists for cyclic CFGs).

The same property powers the *incremental* rebuild
(:meth:`DominatorTree.evolved`) used by the scheduler: a barrier
insertion or merge can only change the dominators of barriers
topologically **after** the first affected node (dominator chains of
earlier nodes never traverse the changed region), so idoms before that
point are copied from the previous tree and the one-pass recompute is
restricted to the downstream cone.  For a freshly inserted barrier this
degenerates to the textbook rule: its idom is the nearest common
dominator of its predecessors.

A tree is just its idom map.  The scheduler evolves a new tree on every
barrier insert and merge, and a case ends with about a dozen barriers,
so idom chains are short and no per-tree table (depths, children,
Euler tour, binary lifting) pays for its build.  ``dominates``,
``nearest_common_dominator`` and ``depth`` walk idoms by topological
index, with the same CHK *intersect* the construction runs: an idom
always precedes its node topologically, so walking the later of two
nodes up its chain meets their nearest common ancestor.  Each query is
O(depth).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.barriers.dag import BarrierDag
from repro.obs.spans import span

__all__ = ["DominatorTree"]


class DominatorTree:
    """Immediate-dominator tree of a :class:`BarrierDag`."""

    __slots__ = ("_dag", "_idom")

    def __init__(self, dag: BarrierDag, _idom: dict[int, int] | None = None) -> None:
        self._dag = dag
        self._idom: dict[int, int] = _compute_idoms(dag) if _idom is None else _idom

    @classmethod
    def evolved(
        cls, dag: BarrierDag, previous: "DominatorTree", affected: Iterable[int]
    ) -> "DominatorTree":
        """Incremental rebuild after a structural dag update.

        ``affected`` are the barrier ids (present in ``dag``) whose
        predecessor sets changed -- the freshly inserted barrier, or a
        merge survivor plus the targets of its rewired edges.  Dominators
        of barriers topologically before the first affected node are
        reused from ``previous``; only the downstream cone is recomputed.
        """
        with span("dom.evolved"):
            index = dag.order_index
            start = min(
                (index[bid] for bid in affected if bid in index), default=0
            )
            order = dag.barrier_ids
            seed = {}
            prev_idom = previous._idom
            for bid in order[:start]:
                idom = prev_idom.get(bid)
                if idom is not None:
                    seed[bid] = idom
            return cls(dag, _idom=_compute_idoms(dag, seed=seed, start=start))

    @property
    def root(self) -> int:
        return self._dag.initial.id

    def idom(self, barrier_id: int) -> int | None:
        """Immediate dominator, or ``None`` for the initial barrier."""
        if barrier_id == self.root:
            return None
        return self._idom[barrier_id]

    def depth(self, barrier_id: int) -> int:
        """Edges from the initial barrier down the idom chain."""
        root = self.root
        idom = self._idom
        depth = 0
        while barrier_id != root:
            barrier_id = idom[barrier_id]
            depth += 1
        return depth

    def dominates(self, x: int, y: int) -> bool:
        """True iff ``x dom y`` (every barrier dominates itself)."""
        index = self._dag.order_index
        idom = self._idom
        stop = index[x]
        while index[y] > stop:
            y = idom[y]
        return y == x

    def nearest_common_dominator(self, x: int, y: int) -> int:
        """``CommonDom``: nearest common ancestor in the dominator tree."""
        return _intersect(self._idom, self._dag.order_index, x, y)

    def as_mapping(self) -> Mapping[int, int | None]:
        """``barrier id -> immediate dominator id`` (root maps to None)."""
        out: dict[int, int | None] = {self.root: None}
        out.update(self._idom)
        return out


def _compute_idoms(
    dag: BarrierDag, seed: dict[int, int] | None = None, start: int = 0
) -> dict[int, int]:
    """One-pass Cooper-Harvey-Kennedy dominators over an acyclic dag.

    ``barrier_ids`` is a topological order, so every predecessor of a
    node -- and every node on a predecessor's dominator chain -- is
    processed before the node itself.  One pass in that order therefore
    computes the exact dominator tree: ``idom(v)`` is the nearest common
    ancestor of ``preds(v)`` in the (already final) tree above ``v``.

    ``seed``/``start`` implement the incremental rebuild: idoms for
    nodes before topological index ``start`` are taken from ``seed``
    verbatim and only ``order[start:]`` is recomputed.
    """
    order = dag.barrier_ids
    index = dag.order_index
    root = dag.initial.id
    idom: dict[int, int] = {root: root}
    if seed:
        idom.update(seed)

    for bid in order[start:]:
        if bid == root:
            continue
        preds = dag.preds(bid)
        if not preds:
            raise ValueError(
                f"barrier {bid} is unreachable from the initial barrier"
            )
        new = preds[0]
        for p in preds[1:]:
            new = _intersect(idom, index, new, p)
        idom[bid] = new

    idom.pop(root)
    return idom


def _intersect(
    idom: Mapping[int, int], index: Mapping[int, int], a: int, b: int
) -> int:
    """Cooper-Harvey-Kennedy *intersect*: the nearest common ancestor of
    ``a`` and ``b`` in the idom tree, walking whichever node is later in
    topological order up its idom chain until the two meet.  Never reads
    the root's idom (the root has the smallest index)."""
    while a != b:
        while index[a] > index[b]:
            a = idom[a]
        while index[b] > index[a]:
            b = idom[b]
    return a
