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

Query complexity: ``dominates`` is O(1) via Euler-tour intervals of the
dominator tree; ``nearest_common_dominator`` is O(log depth) via binary
lifting (the lifting table is built lazily on the first NCA query).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.barriers.dag import BarrierDag
from repro.obs.spans import span

__all__ = ["DominatorTree"]


class DominatorTree:
    """Immediate-dominator tree of a :class:`BarrierDag`."""

    def __init__(self, dag: BarrierDag, _idom: dict[int, int] | None = None) -> None:
        self._dag = dag
        self._idom: dict[int, int] = _compute_idoms(dag) if _idom is None else _idom
        root = dag.initial.id
        depth: dict[int, int] = {root: 0}
        # Nodes come out of barrier_ids topologically sorted, and an idom
        # always precedes its node topologically, so one sweep sets depths.
        children: dict[int, list[int]] = {bid: [] for bid in dag.barrier_ids}
        for bid in dag.barrier_ids:
            if bid == root:
                continue
            idom = self._idom[bid]
            depth[bid] = depth[idom] + 1
            children[idom].append(bid)
        # Euler-tour intervals over the dominator tree: x dominates y iff
        # y's interval nests inside x's.  O(1) per query after this O(B)
        # iterative DFS (children visited in topological order).
        tin: dict[int, int] = {}
        tout: dict[int, int] = {}
        clock = 0
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, closing = stack.pop()
            if closing:
                tout[node] = clock
                continue
            tin[node] = clock
            clock += 1
            stack.append((node, True))
            for child in reversed(children[node]):
                stack.append((child, False))
        self._depth = depth
        self._tin = tin
        self._tout = tout
        #: Binary-lifting ancestor table, built lazily on the first NCA query.
        self._up: list[dict[int, int]] | None = None

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
        return self._depth[barrier_id]

    def dominates(self, x: int, y: int) -> bool:
        """True iff ``x dom y`` (every barrier dominates itself)."""
        return self._tin[x] <= self._tin[y] and self._tout[y] <= self._tout[x]

    def _lift(self) -> list[dict[int, int]]:
        """``up[k][v]``: the ``2**k``-th ancestor of ``v`` (clamped at the
        root).  Built once per tree, on the first NCA query."""
        if self._up is None:
            root = self.root
            level0 = {bid: (root if bid == root else self._idom[bid])
                      for bid in self._depth}
            up = [level0]
            max_depth = max(self._depth.values(), default=0)
            while (1 << len(up)) <= max_depth:
                prev = up[-1]
                up.append({bid: prev[prev[bid]] for bid in prev})
            self._up = up
        return self._up

    def nearest_common_dominator(self, x: int, y: int) -> int:
        """``CommonDom``: nearest common ancestor in the dominator tree."""
        if self.dominates(x, y):
            return x
        if self.dominates(y, x):
            return y
        # Lift x to its deepest ancestor that still does NOT dominate y;
        # that ancestor's idom is the NCA.  O(log depth).
        up = self._lift()
        for level in reversed(up):
            anc = level[x]
            if not self.dominates(anc, y):
                x = anc
        return self._idom[x]

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

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

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
            new = intersect(new, p)
        idom[bid] = new

    idom.pop(root)
    return idom
