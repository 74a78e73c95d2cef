"""The barrier dag ``(B, <_b)`` with weighted edges (paper section 3.1/4.4).

Nodes are :class:`~repro.barriers.model.Barrier` objects; there is an edge
``u -> v`` iff some processor executes ``v`` as the *next* barrier after
``u`` in its stream.  The edge carries the ``[min,max]`` execution time of
the code between the two barriers, combined over every processor sharing
the pair with the **join** rule of figure 13: because no processor
proceeds past ``v`` until all arrive, the minimum edge time is the
*maximum over processors* of the per-processor region minimum (and
likewise for the maximum).

The dag is immutable; when the schedule mutates it derives the next
snapshot *incrementally* with :meth:`BarrierDag.evolved_insert` /
:meth:`BarrierDag.evolved_replace` (fire-time re-propagation limited to
the affected downstream cone, topological-order splicing, descendant
bitset patching), falling back to a scratch rebuild only when no cached
dag exists.  ``REPRO_CHECK_INCREMENTAL=1`` cross-checks every evolved
snapshot against a scratch rebuild (see ``repro.core.schedule``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.barriers.model import Barrier
from repro.obs.metrics import current_registry
from repro.obs.spans import span
from repro.timing import Interval, ZERO

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["BarrierEdge", "BarrierDag"]


@dataclass(frozen=True, slots=True)
class BarrierEdge:
    """A directed edge of the barrier dag with its region time interval."""

    src: int  # barrier id
    dst: int  # barrier id
    weight: Interval


class BarrierDag:
    """Immutable snapshot of the barrier partial order with region weights."""

    def __init__(
        self,
        barriers: Iterable[Barrier],
        region_times: Mapping[tuple[int, int], Interval],
        initial: Barrier,
        barrier_latency: int = 0,
    ) -> None:
        """``barrier_latency`` models non-ideal barrier hardware: every
        (non-initial) barrier takes that many extra time units between the
        last arrival and the synchronous release.  The paper's experiments
        assume 0 ("barriers were assumed to always execute immediately",
        section 5); the [OKDi90] companion paper studies the hardware cost
        this knob stands in for.  Folding the latency into every incoming
        edge weight is exact: ``fire(v) = max(fire(u) + region + L)``.
        """
        if barrier_latency < 0:
            raise ValueError("barrier_latency must be >= 0")
        self.barrier_latency = barrier_latency
        self._barriers: dict[int, Barrier] = {b.id: b for b in barriers}
        if initial.id not in self._barriers:
            raise ValueError("initial barrier missing from barrier set")
        self.initial = initial
        self._weight: dict[tuple[int, int], Interval] = {
            edge: (weight + barrier_latency if barrier_latency else weight)
            for edge, weight in region_times.items()
        }
        self._succs: dict[int, list[int]] = {bid: [] for bid in self._barriers}
        self._preds: dict[int, list[int]] = {bid: [] for bid in self._barriers}
        for (u, v) in self._weight:
            if u not in self._barriers or v not in self._barriers:
                raise ValueError(f"edge ({u},{v}) references unknown barrier")
            self._succs[u].append(v)
            self._preds[v].append(u)
        self._topo: tuple[int, ...] = self._topological_order()
        self._order_index = {bid: k for k, bid in enumerate(self._topo)}
        #: Every barrier but the initial one has a predecessor, so the
        #: initial barrier reaches them all and fire times are longest
        #: paths from it (a schedule's dag always is; see _longest).
        #: Insertions and merges keep the property.
        self._rooted = all(
            self._preds[bid] for bid in self._barriers if bid != initial.id
        )
        self._fire: dict[int, Interval] | None = None
        # Reachability is memoized per dag as one bitset per barrier (bit k
        # set iff the barrier at topological index k is a descendant).  The
        # dag is an immutable snapshot -- the schedule rebuilds it, keyed by
        # revision, whenever it mutates -- so the memo never goes stale.
        self._desc_bits: list[int] | None = None
        self._desc_sets: dict[int, frozenset[int]] = {}

    # -- basic structure ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._barriers)

    def __contains__(self, barrier_id: int) -> bool:
        return barrier_id in self._barriers

    @property
    def barrier_ids(self) -> tuple[int, ...]:
        """All barrier ids in topological order (initial barrier first)."""
        return self._topo

    def barrier(self, barrier_id: int) -> Barrier:
        return self._barriers[barrier_id]

    def barriers(self) -> Iterator[Barrier]:
        for bid in self._topo:
            yield self._barriers[bid]

    def succs(self, barrier_id: int) -> Sequence[int]:
        """Successor ids (read-only: callers must not mutate the list,
        which later snapshots share)."""
        return self._succs[barrier_id]

    def preds(self, barrier_id: int) -> Sequence[int]:
        """Predecessor ids (read-only, as :meth:`succs`)."""
        return self._preds[barrier_id]

    def weight(self, u: int, v: int) -> Interval:
        return self._weight[(u, v)]

    def edges(self) -> Iterator[BarrierEdge]:
        for (u, v), w in self._weight.items():
            yield BarrierEdge(u, v, w)

    def _topological_order(self) -> tuple[int, ...]:
        in_deg = {bid: len(self._preds[bid]) for bid in self._barriers}
        frontier = sorted((bid for bid, d in in_deg.items() if d == 0), reverse=True)
        order: list[int] = []
        while frontier:
            bid = frontier.pop()
            order.append(bid)
            for s in self._succs[bid]:
                in_deg[s] -= 1
                if in_deg[s] == 0:
                    frontier.append(s)
        if len(order) != len(self._barriers):
            raise ValueError("barrier graph contains a cycle: <_b is not a partial order")
        if order and order[0] != self.initial.id and len(order) > 1:
            # The initial barrier has no predecessors and must come first for
            # the fire-time propagation; reorder deterministically.
            order.remove(self.initial.id)
            order.insert(0, self.initial.id)
        return tuple(order)

    # -- incremental evolution --------------------------------------------------

    def evolved_insert(
        self,
        new_barrier: Barrier,
        edge_edits: Mapping[tuple[int, int], Interval | None],
    ) -> "BarrierDag":
        """The dag after inserting ``new_barrier`` into the schedule.

        ``edge_edits`` maps ``(u, v)`` barrier-id pairs to the edge's new
        *raw* region weight (``barrier_latency`` not yet folded in), or to
        ``None`` to delete the edge.  Every *added* edge is incident to the
        new barrier (an insertion splits each stream's ``u -> v`` region
        into ``u -> b`` and ``b -> v``); deletions are the split-away
        pairs.  Equivalent to a scratch rebuild, but the work is bounded
        by the insertion's downstream cone.
        """
        with span("dag.evolved_insert", barrier=new_barrier.id):
            return self._evolved_insert(new_barrier, edge_edits)

    def _evolved_insert(
        self,
        new_barrier: Barrier,
        edge_edits: Mapping[tuple[int, int], Interval | None],
    ) -> "BarrierDag":
        new = object.__new__(BarrierDag)
        new.barrier_latency = self.barrier_latency
        new.initial = self.initial
        new._barriers = {**self._barriers, new_barrier.id: new_barrier}
        new._weight, new._succs, new._preds = self._edited_adjacency(
            edge_edits, add_nodes=(new_barrier.id,), drop_node=None
        )
        # Each split region u -> v becomes u -> b -> v: no barrier loses
        # its last predecessor, and b gets one.
        new._rooted = self._rooted
        # Topological splice: the new node goes right after its last
        # predecessor when every successor already sits at or past that
        # slot (edge deletions only relax the old order, and all added
        # edges are incident to the new node).  Any valid topological
        # order is semantically equivalent -- consumers rely only on
        # "predecessors sort before successors".
        oi = self._order_index
        pos = 1 + max((oi[p] for p in new._preds[new_barrier.id]), default=0)
        spliced = all(oi[s] >= pos for s in new._succs[new_barrier.id])
        if spliced:
            new._topo = self._topo[:pos] + (new_barrier.id,) + self._topo[pos:]
        else:
            new._topo = new._topological_order()
        new._order_index = {bid: k for k, bid in enumerate(new._topo)}
        new._fire = self._refire(new, edge_edits, extra=(new_barrier.id,))
        new._desc_sets = {}
        if spliced and self._desc_bits is not None:
            new._desc_bits = self._spliced_desc_bits(new, pos, new_barrier.id)
        else:
            new._desc_bits = None
        return new

    def evolved_replace(
        self,
        old_id: int,
        survivor: Barrier,
        edge_edits: Mapping[tuple[int, int], Interval | None],
    ) -> "BarrierDag":
        """The dag after a merge fused barrier ``old_id`` into ``survivor``.

        ``survivor`` is already a node of this dag; ``edge_edits`` delete
        every edge incident to ``old_id`` and reroute/reweigh the
        survivor's edges (raw region weights, as in
        :meth:`evolved_insert`).
        """
        with span("dag.evolved_replace", old=old_id, survivor=survivor.id):
            return self._evolved_replace(old_id, survivor, edge_edits)

    def _evolved_replace(
        self,
        old_id: int,
        survivor: Barrier,
        edge_edits: Mapping[tuple[int, int], Interval | None],
    ) -> "BarrierDag":
        new = object.__new__(BarrierDag)
        new.barrier_latency = self.barrier_latency
        new.initial = self.initial
        barriers = dict(self._barriers)
        del barriers[old_id]
        barriers[survivor.id] = survivor
        new._barriers = barriers
        new._weight, new._succs, new._preds = self._edited_adjacency(
            edge_edits, add_nodes=(), drop_node=old_id
        )
        # The victim's in- and out-edges move to the survivor.
        new._rooted = self._rooted
        # Dropping a node keeps the old order valid unless some rerouted
        # edge now points backwards in it.
        pruned = tuple(bid for bid in self._topo if bid != old_id)
        index = {bid: k for k, bid in enumerate(pruned)}
        if all(
            index[u] < index[v]
            for (u, v), w in edge_edits.items()
            if w is not None and (u, v) not in self._weight
        ):
            new._topo = pruned
            new._order_index = index
        else:
            new._topo = new._topological_order()
            new._order_index = {bid: k for k, bid in enumerate(new._topo)}
        new._fire = self._refire(
            new, edge_edits, extra=(survivor.id,), dropped=(old_id,)
        )
        new._desc_sets = {}
        new._desc_bits = None  # merges reroute reachability; recompute lazily
        return new

    def _edited_adjacency(
        self,
        edge_edits: Mapping[tuple[int, int], Interval | None],
        add_nodes: tuple[int, ...],
        drop_node: int | None,
    ) -> tuple[
        dict[tuple[int, int], Interval], dict[int, list[int]], dict[int, list[int]]
    ]:
        """Copy-on-write weight/adjacency maps with ``edge_edits`` applied
        (only the adjacency lists of touched nodes are copied)."""
        weight = dict(self._weight)
        succs = dict(self._succs)
        preds = dict(self._preds)
        owned: set[int] = set(add_nodes)
        for bid in add_nodes:
            succs[bid] = []
            preds[bid] = []

        def own(bid: int) -> None:
            if bid not in owned:
                owned.add(bid)
                succs[bid] = list(succs[bid])
                preds[bid] = list(preds[bid])

        lat = self.barrier_latency
        for (u, v), w in edge_edits.items():
            if w is None:
                del weight[(u, v)]
                own(u)
                own(v)
                succs[u].remove(v)
                preds[v].remove(u)
            else:
                weight[(u, v)] = w + lat if lat else w
                if (u, v) not in self._weight:
                    own(u)
                    own(v)
                    succs[u].append(v)
                    preds[v].append(u)
        if drop_node is not None:
            if succs[drop_node] or preds[drop_node]:
                raise ValueError(
                    f"barrier {drop_node} still has edges; cannot drop it"
                )
            del succs[drop_node]
            del preds[drop_node]
        return weight, succs, preds

    def _refire(
        self,
        new: "BarrierDag",
        edge_edits: Mapping[tuple[int, int], Interval | None],
        extra: tuple[int, ...] = (),
        dropped: tuple[int, ...] = (),
    ) -> dict[int, Interval] | None:
        """Re-propagate memoized fire times through the affected cone.

        Seeds a min-heap (keyed by topological index) with every node
        whose in-edges changed; pops in topological order, so each node's
        predecessors are final when it is recomputed and each node is
        processed at most once.  Unchanged values stop the propagation --
        the exact "downstream cone" bound.  ``None`` if this dag never
        materialized fire times (the evolved dag stays lazy too).
        """
        if self._fire is None:
            return None
        fire = dict(self._fire)
        for bid in dropped:
            fire.pop(bid, None)
        oi = new._order_index
        pending: set[int] = set()
        heap: list[tuple[int, int]] = []

        def push(bid: int) -> None:
            if bid in oi and bid not in pending:
                pending.add(bid)
                heapq.heappush(heap, (oi[bid], bid))

        for bid in extra:
            push(bid)
        for (_, v) in edge_edits:
            push(v)
        weight = new._weight
        cone = 0
        while heap:
            _, v = heapq.heappop(heap)
            cone += 1
            pending.discard(v)
            # Join plain ints: one Interval per barrier, not per in-edge.
            lo = hi = 0
            for u in new._preds[v]:
                f = fire[u]
                w = weight[(u, v)]
                if f.lo + w.lo > lo:
                    lo = f.lo + w.lo
                if f.hi + w.hi > hi:
                    hi = f.hi + w.hi
            acc = Interval(lo, hi)
            if fire.get(v) != acc:
                fire[v] = acc
                for s in new._succs[v]:
                    push(s)
        reg = current_registry()
        if reg is not None:
            reg.observe("views.refire_cone", cone)
        return fire

    def _spliced_desc_bits(
        self, new: "BarrierDag", pos: int, new_id: int
    ) -> list[int]:
        """Patch memoized descendant bitsets for a topological splice at
        ``pos``: shift bit positions ``>= pos`` up by one, give the new
        node the union of its successors' closures, and OR that gain into
        every (transitive) ancestor.  Exact because every added edge is
        incident to the new node, so no other reachability changes."""
        low = (1 << pos) - 1
        bits = [((w >> pos) << (pos + 1)) | (w & low) for w in self._desc_bits]
        bits.insert(pos, 0)
        oi = new._order_index
        acc = 0
        for s in new._succs[new_id]:
            si = oi[s]
            acc |= bits[si] | (1 << si)
        bits[pos] = acc
        pred_mask = 0
        for p in new._preds[new_id]:
            pred_mask |= 1 << oi[p]
        gain = acc | (1 << pos)
        for i, w in enumerate(bits):
            if i != pos and ((w & pred_mask) or ((1 << i) & pred_mask)):
                bits[i] = w | gain
        return bits

    # -- reachability -----------------------------------------------------------

    @property
    def order_index(self) -> Mapping[int, int]:
        """Barrier id -> topological index (the bit position of the
        reachability bitsets)."""
        return self._order_index

    def _descendant_bits(self) -> list[int]:
        """Per-barrier descendant bitsets, indexed by topological order.

        One reverse-topological sweep of word-parallel ORs: O(V * E / 64)
        instead of the per-query DFS the path enumeration used to pay.
        """
        if self._desc_bits is None:
            bits = [0] * len(self._topo)
            for idx in range(len(self._topo) - 1, -1, -1):
                acc = 0
                for s in self._succs[self._topo[idx]]:
                    si = self._order_index[s]
                    acc |= bits[si] | (1 << si)
                bits[idx] = acc
            self._desc_bits = bits
        return self._desc_bits

    def descendants(self, barrier_id: int) -> frozenset[int]:
        """All barriers ordered after ``barrier_id`` (excluding itself)."""
        cached = self._desc_sets.get(barrier_id)
        if cached is None:
            word = self._descendant_bits()[self._order_index[barrier_id]]
            cached = frozenset(
                bid for k, bid in enumerate(self._topo) if (word >> k) & 1
            )
            self._desc_sets[barrier_id] = cached
        return cached

    def has_path(self, u: int, v: int) -> bool:
        """True iff ``u == v`` or ``u <_b v`` (a chain of barriers orders them).

        This is the *PathFind* procedure of the conservative insertion
        algorithm, step [1].  O(1) per query after the memoized bitset
        sweep."""
        if u == v:
            return True
        word = self._descendant_bits()[self._order_index[u]]
        return (word >> self._order_index[v]) & 1 == 1

    def ordered(self, u: int, v: int) -> bool:
        """True iff the two barriers are comparable under ``<_b``."""
        return self.has_path(u, v) or self.has_path(v, u)

    # -- timing ---------------------------------------------------------------------

    def fire_times(self) -> dict[int, Interval]:
        """``[min,max]`` fire time of every barrier relative to the initial
        barrier's release (time 0).

        ``fire(v) = join over in-edges (u,v) of fire(u) + weight(u,v)`` --
        the join implements "a barrier fires when its last participant
        arrives" for both bounds at once.
        """
        return dict(self._fire_map())

    def _fire_map(self) -> dict[int, Interval]:
        """The memoized fire times themselves (not a copy)."""
        if self._fire is None:
            fire: dict[int, Interval] = {}
            for bid in self._topo:
                acc = ZERO
                for u in self._preds[bid]:
                    acc = acc.join(fire[u] + self._weight[(u, bid)])
                fire[bid] = acc
            self._fire = fire
        return self._fire

    def longest_path_max(self, u: int, v: int) -> int | None:
        """``l(psi_max(u, v))``: the longest ``u -> v`` path length assuming
        maximum execution times for all regions; ``None`` if no path.
        ``u == v`` gives 0."""
        return self._longest(u, v, use_max=True)

    def longest_path_min(self, u: int, v: int) -> int | None:
        """``l(psi_min(u, v))``: longest path under minimum region times.

        Note this is still a *longest* path: the earliest ``v`` can fire
        after ``u`` is governed by the slowest chain of arrivals even when
        every region takes its minimum time (figure 13)."""
        return self._longest(u, v, use_max=False)

    def _longest(self, u: int, v: int, use_max: bool) -> int | None:
        if u == v:
            return 0
        if u == self.initial.id and self._rooted:
            # The initial barrier reaches every barrier, and fire(v) is
            # the join over in-edges of fire(pred) + weight, with the
            # barrier latency folded into the same weights: the longest
            # b0 -> v path under max (hi) and under min (lo) times.
            fire = self._fire_map()[v]
            return fire.hi if use_max else fire.lo
        if not self.has_path(u, v):
            return None
        start = self._order_index[u]
        end = self._order_index[v]
        best: dict[int, int] = {u: 0}
        for bid in self._topo[start:end + 1]:
            if bid not in best:
                continue
            base = best[bid]
            for s in self._succs[bid]:
                if self._order_index[s] > end and s != v:
                    continue
                w = self._weight[(bid, s)]
                cand = base + (w.hi if use_max else w.lo)
                if cand > best.get(s, -1):
                    best[s] = cand
        return best.get(v)

    # -- interoperability -----------------------------------------------------------

    def to_networkx(self) -> "nx.DiGraph":
        import networkx as nx  # local: the block path never loads networkx

        graph = nx.DiGraph()
        for bid in self._topo:
            graph.add_node(bid, barrier=self._barriers[bid])
        for (u, v), w in self._weight.items():
            graph.add_edge(u, v, weight=w)
        return graph

    def render(self) -> str:
        """Debug listing: each barrier with its successors and weights."""
        fire = self.fire_times()
        lines = []
        for bid in self._topo:
            b = self._barriers[bid]
            outs = ", ".join(
                f"b{s}{self._weight[(bid, s)]}" for s in sorted(self._succs[bid])
            )
            lines.append(
                f"b{bid:<3} fire={fire[bid]!s:<10} PEs={sorted(b.participants)} -> {outs or '-'}"
            )
        return "\n".join(lines)
