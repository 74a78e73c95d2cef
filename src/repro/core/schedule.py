"""The schedule under construction: per-processor instruction/barrier streams.

A schedule for an ``n_pes``-processor barrier MIMD assigns every
instruction node of an :class:`~repro.ir.dag.InstructionDAG` to one
processor's *stream* -- an ordered list of instructions interleaved with
:class:`~repro.barriers.model.Barrier` objects.  Every stream begins with
the shared *initial barrier* ``b0`` spanning all processors (the machine
start, section 3.1); a barrier that spans several processors appears in
each of their streams.

From the streams the class derives:

* the **barrier dag** ``(B, <_b)`` with figure 13 region weights,
* its **dominator tree**,
* per-processor **completion intervals** and per-instruction global
  ``[min,max]`` start/finish intervals (fire time of the instruction's
  last preceding barrier plus the trailing region).

Derived views are maintained **incrementally**.  Mutations split into two
classes with very different blast radii:

* *content* mutations (:meth:`append_instruction`) extend the open
  region after a stream's last barrier.  No barrier-dag edge exists for
  that region yet, so the cached dag, dominator tree, and fire times
  stay valid untouched; only the happens-before adjacency gains two
  edges, which are patched in place.
* *structure* mutations (:meth:`insert_barrier`, :meth:`replace_barrier`)
  change the barrier set.  The cached dag **evolves**
  (:meth:`~repro.barriers.dag.BarrierDag.evolved_insert` /
  ``evolved_replace``: fire-time re-propagation limited to the affected
  downstream cone, topological splicing, descendant-bitset patching) and
  the dominator tree is rebuilt only from the first affected node onward
  (:meth:`~repro.barriers.dominators.DominatorTree.evolved` -- the new
  node's idom is the nearest common dominator of its predecessors).

Timing queries (``delta_before``/``delta_through``/``global_finish``/
``completion``) answer in O(1) from per-stream prefix-sum tables
(barriers contribute zero, so a region sum is a difference of two
prefix sums and ``LastBar`` is one array lookup).

Per-PE state is **sparse**.  A PE whose stream is only ``b0`` is
*idle*: every idle PE shares one read-only stream ``(b0,)`` and one set
of read-only tables, and a PE gets its own stream and tables on its
first :meth:`append_instruction` or :meth:`insert_barrier`.  Every
walk over processors (construction, scratch rebuilds, ``makespan``,
``used_processors``) runs over :attr:`active_pes` only, so a 1024-PE
machine on which a block uses a dozen PEs costs about what a 16-PE
machine does.

Set ``REPRO_CHECK=1`` (:func:`repro.kernels.checking`) to cross-check
every incremental view against a scratch rebuild after each mutation
(slow; debug/CI only).

The scheduler (:mod:`repro.core.scheduler`) mutates the schedule through
:meth:`append_instruction`, :meth:`insert_barrier` and
:meth:`replace_barrier` (merging) only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from types import MappingProxyType
from typing import Iterator, Union

from repro import kernels
from repro.barriers.dag import BarrierDag
from repro.barriers.dominators import DominatorTree
from repro.barriers.model import Barrier
from repro.obs.metrics import current_registry
from repro.timing import Interval, ZERO, interval_max
from repro.ir.dag import ENTRY, EXIT, InstructionDAG, NodeId

__all__ = ["Item", "Schedule"]

#: A stream item: an instruction node id, or a Barrier object.
Item = Union[NodeId, Barrier]

#: A happens-before graph key: ``("n", node)`` or ``("b", barrier_id)``.
HbKey = tuple[str, object]


def _hb_key(item: Item) -> HbKey:
    if isinstance(item, Barrier):
        return ("b", item.id)
    return ("n", item)


class _PerPE(dict):
    """A per-PE table holding entries for active PEs only.

    Reading an idle PE returns the subclass's shared read-only ``IDLE``
    table -- that of the stream ``(b0,)`` -- without inserting it, so
    read paths need no idle case of their own.
    """

    __slots__ = ()
    IDLE: object = None

    def __missing__(self, pe: int):
        return self.IDLE


class _CumTable(_PerPE):
    """Prefix sums: b0 adds no latency."""

    __slots__ = ()
    IDLE = (0, 0)


class _PositionTable(_PerPE):
    """Last-barrier and barrier positions: b0 at index 0."""

    __slots__ = ()
    IDLE = (0,)


class _BarIndexTable(_PerPE):
    """Barrier id -> position: b0 (always id 0) at index 0."""

    __slots__ = ()
    IDLE = MappingProxyType({0: 0})


class Schedule:
    """Mutable per-processor streams plus incrementally maintained views."""

    def __init__(
        self, dag: InstructionDAG, n_pes: int, barrier_latency: int = 0
    ) -> None:
        if n_pes < 1:
            raise ValueError("n_pes must be >= 1")
        if barrier_latency < 0:
            raise ValueError("barrier_latency must be >= 0")
        self.dag = dag
        self.n_pes = n_pes
        #: Extra time units each non-initial barrier takes to release
        #: after its last arrival (0 = the paper's ideal hardware).
        self.barrier_latency = barrier_latency
        self.initial_barrier = Barrier(0, range(n_pes), is_initial=True)
        self._next_barrier_id = 1
        #: The one stream every idle PE shares (read-only).
        self.idle_stream: tuple[Item, ...] = (self.initial_barrier,)
        #: Length ``n_pes``: a list per active PE, ``idle_stream`` for
        #: every idle one.
        self.streams: list[list[Item] | tuple[Item, ...]] = [
            self.idle_stream
        ] * n_pes
        #: Ascending PEs whose stream is more than ``b0``.
        self._active: list[int] = []
        self._processor_of: dict[NodeId, int] = {}
        # -- per-stream auxiliary tables (O(1) queries, patched per mutation;
        # entries for active PEs only, see _PerPE)
        #: instruction -> (pe, stream index)
        self._pos: dict[NodeId, tuple[int, int]] = {}
        #: prefix sums of item latencies; barriers contribute 0, so
        #: ``cum[j] - cum[i]`` is the region time of items ``i..j-1``.
        self._cum_lo: dict[int, list[int]] = _CumTable()
        self._cum_hi: dict[int, list[int]] = _CumTable()
        #: position of the last barrier at index <= k
        self._lastbar: dict[int, list[int]] = _PositionTable()
        #: sorted positions of the stream's barriers
        self._barpos: dict[int, list[int]] = _PositionTable()
        #: barrier id -> position within the stream
        self._barindex: dict[int, dict[int, int]] = _BarIndexTable()
        #: barrier id -> Barrier, every barrier present in some stream
        self._registry: dict[int, Barrier] = {}
        #: (u, v) barrier-id pair -> {pe: (lo, hi) region sum}: the
        #: per-stream contributions whose join is the dag edge weight.
        self._adj_contrib: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        # -- derived-view caches: invariantly either None or *current*.
        self._bd_cache: BarrierDag | None = None
        self._dom_cache: DominatorTree | None = None
        self._fire_cache: dict[int, Interval] | None = None
        self._hb_cache: dict[HbKey, list[HbKey]] | None = None
        #: exact multiset mirror of ``_hb_cache`` (v -> [u: v in succs[u]]);
        #: lets the patch paths walk *into* a node without scanning every
        #: adjacency list.  Lives and dies with ``_hb_cache``.
        self._hb_pred_cache: dict[HbKey, list[HbKey]] | None = None
        self._hbdesc_cache: dict[int, frozenset[int]] | None = None
        self._check = kernels.checking()
        self._rebuild_tables()

    # -- bookkeeping -----------------------------------------------------------

    def processor_of(self, node: NodeId) -> int:
        return self._processor_of[node]

    @property
    def scheduled_nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._processor_of)

    def position_of(self, node: NodeId) -> tuple[int, int]:
        """``(pe, index)`` of an instruction within its stream."""
        return self._pos[node]

    def instructions_on(self, pe: int) -> list[NodeId]:
        return [it for it in self.streams[pe] if not isinstance(it, Barrier)]

    def last_instruction_on(self, pe: int) -> NodeId | None:
        for item in reversed(self.streams[pe]):
            if not isinstance(item, Barrier):
                return item
        return None

    def barriers(self, include_initial: bool = False) -> list[Barrier]:
        """Distinct barriers in the schedule, by id."""
        out = [
            b
            for b in self._registry.values()
            if include_initial or not b.is_initial
        ]
        out.sort(key=lambda b: b.id)
        return out

    @property
    def n_barriers(self) -> int:
        """Inserted barriers (the initial machine-start barrier excluded):
        the numerator of the paper's *Barrier Synchronization Fraction*."""
        return len(self.barriers(include_initial=False))

    def used_processors(self) -> int:
        """Processors with at least one instruction."""
        barpos = self._barpos
        streams = self.streams
        return sum(1 for pe in self._active if len(barpos[pe]) < len(streams[pe]))

    @property
    def active_pes(self) -> list[int]:
        """Ascending PEs whose stream holds more than ``b0`` (read-only:
        callers must not mutate the list)."""
        return self._active

    @property
    def n_idle(self) -> int:
        """PEs whose stream is only ``b0``; they all share ``idle_stream``."""
        return self.n_pes - len(self._active)

    # -- auxiliary-table maintenance ---------------------------------------------

    def _activate(self, pe: int) -> None:
        """Give idle ``pe`` its own stream and tables (first mutation)."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range [0, {self.n_pes})")
        self.streams[pe] = [self.initial_barrier]
        self._cum_lo[pe] = [0, 0]
        self._cum_hi[pe] = [0, 0]
        self._lastbar[pe] = [0]
        self._barpos[pe] = [0]
        self._barindex[pe] = {self.initial_barrier.id: 0}
        insort(self._active, pe)

    def _rebuild_tables(self) -> None:
        """Recompute every auxiliary table from the active streams
        (construction, re-binding) and drop all derived-view caches."""
        b0 = self.initial_barrier
        self._registry = {b0.id: b0}
        for pe in self._active:
            for item in self.streams[pe]:
                if isinstance(item, Barrier):
                    self._registry.setdefault(item.id, item)
        self._pos = {}
        for table in (
            self._cum_lo, self._cum_hi, self._lastbar, self._barpos, self._barindex
        ):
            table.clear()
        for pe in self._active:
            self._reindex_stream(pe)
        self._rebuild_contrib()
        self._bd_cache = None
        self._dom_cache = None
        self._fire_cache = None
        self._hb_cache = None
        self._hb_pred_cache = None
        self._hbdesc_cache = None

    def _reindex_stream(self, pe: int) -> None:
        """Rebuild one stream's prefix sums / barrier-position tables."""
        stream = self.streams[pe]
        dag = self.dag
        cum_lo = [0]
        cum_hi = [0]
        lastbar: list[int] = []
        barpos: list[int] = []
        barindex: dict[int, int] = {}
        pos = self._pos
        lo = hi = 0
        last = -1
        for k, item in enumerate(stream):
            if isinstance(item, Barrier):
                barpos.append(k)
                barindex[item.id] = k
                last = k
            else:
                lat = dag.latency(item)
                lo += lat.lo
                hi += lat.hi
                pos[item] = (pe, k)
            cum_lo.append(lo)
            cum_hi.append(hi)
            lastbar.append(last)
        self._cum_lo[pe] = cum_lo
        self._cum_hi[pe] = cum_hi
        self._lastbar[pe] = lastbar
        self._barpos[pe] = barpos
        self._barindex[pe] = barindex

    def _rebuild_contrib(self) -> None:
        # Idle streams hold no barrier pair, so only active ones contribute.
        contrib: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
        dag = self.dag
        for pe in self._active:
            stream = self.streams[pe]
            prev: Barrier | None = None
            lo = hi = 0
            for item in stream:
                if isinstance(item, Barrier):
                    if prev is not None:
                        contrib.setdefault((prev.id, item.id), {})[pe] = (lo, hi)
                    prev = item
                    lo = hi = 0
                else:
                    lat = dag.latency(item)
                    lo += lat.lo
                    hi += lat.hi
        self._adj_contrib = contrib

    def _joined_weight(self, pair: tuple[int, int]) -> Interval:
        """Figure 13 join of a dag edge's per-stream region contributions."""
        entry = self._adj_contrib[pair]
        return Interval(
            max(lo for lo, _ in entry.values()),
            max(hi for _, hi in entry.values()),
        )

    # -- mutations ---------------------------------------------------------------

    def append_instruction(self, pe: int, node: NodeId) -> None:
        if node in self._processor_of:
            raise ValueError(f"node {node!r} already scheduled")
        if node == ENTRY or node == EXIT:
            raise ValueError("dummy nodes are never scheduled")
        if node not in self.dag:
            raise ValueError(f"node {node!r} is not in the instruction DAG")
        if pe not in self._barindex:
            self._activate(pe)
        stream = self.streams[pe]
        idx = len(stream)
        stream.append(node)
        self._processor_of[node] = pe
        self._pos[node] = (pe, idx)
        lat = self.dag.latency(node)
        cum_lo = self._cum_lo[pe]
        cum_lo.append(cum_lo[-1] + lat.lo)
        cum_hi = self._cum_hi[pe]
        cum_hi.append(cum_hi[-1] + lat.hi)
        lastbar = self._lastbar[pe]
        lastbar.append(lastbar[-1])
        # A content mutation: the node lands in the open region after the
        # stream's last barrier, which no barrier-dag edge covers yet, so
        # the cached dag / dominator tree / fire times all stay valid.  H
        # gains edges prev->node and producer->node; when the list order
        # is topological (the scheduler guarantees producers are already
        # scheduled) the new node is an H-sink and the barrier descendant
        # sets are untouched too.  An out-of-order append (some consumer
        # already scheduled) would add *outgoing* H edges: drop the H
        # caches then.
        if self._hb_cache is not None or self._hbdesc_cache is not None:
            if any(s in self._processor_of for s in self.dag.real_succs(node)):
                self._hb_cache = None
                self._hb_pred_cache = None
                self._hbdesc_cache = None
            elif self._hb_cache is not None:
                self._patch_hb_append(pe, node)
        if self._check:
            self._verify_incremental()

    def insert_barrier(self, placements: dict[int, int]) -> Barrier:
        """Insert a new barrier before index ``placements[pe]`` in each
        participating processor's stream.  Indices refer to the streams as
        they are *before* the call."""
        if not placements:
            raise ValueError("a barrier needs at least one participant")
        for pe, idx in placements.items():
            if not 0 <= pe < self.n_pes:
                raise ValueError(f"PE {pe} out of range [0, {self.n_pes})")
            stream = self.streams[pe]
            if not 1 <= idx <= len(stream):
                raise ValueError(
                    f"barrier index {idx} out of range on PE {pe} "
                    f"(stream length {len(stream)}; index 0 is b0)"
                )
        barrier = Barrier(self._next_barrier_id, placements.keys())
        self._next_barrier_id += 1
        # Pre-mutation split info: inserting at idx splits the region of
        # the enclosing dag edge (u, v) into (u, b) and (b, v); the two
        # halves are prefix-sum differences.
        splits: list[
            tuple[int, int, int | None, tuple[int, int], tuple[int, int] | None]
        ] = []
        for pe, idx in placements.items():
            stream = self.streams[pe]
            cum_lo, cum_hi = self._cum_lo[pe], self._cum_hi[pe]
            u_pos = self._lastbar[pe][idx - 1]
            u_id = stream[u_pos].id
            barpos = self._barpos[pe]
            k = bisect_left(barpos, idx)
            if k < len(barpos):
                v_pos = barpos[k]
                v_id = stream[v_pos].id
                w_bv = (cum_lo[v_pos] - cum_lo[idx], cum_hi[v_pos] - cum_hi[idx])
            else:
                v_id = None
                w_bv = None
            w_ub = (cum_lo[idx] - cum_lo[u_pos + 1], cum_hi[idx] - cum_hi[u_pos + 1])
            splits.append((pe, u_id, v_id, w_ub, w_bv))
        for pe, idx in placements.items():
            if pe not in self._barindex:
                self._activate(pe)
            self.streams[pe].insert(idx, barrier)
        for pe in placements:
            self._reindex_stream(pe)
        self._registry[barrier.id] = barrier
        # Contribution-table surgery + the dag edge edits it implies.
        contrib = self._adj_contrib
        touched: set[tuple[int, int]] = set()
        for pe, u_id, v_id, w_ub, w_bv in splits:
            if v_id is not None:
                pair = (u_id, v_id)
                entry = contrib[pair]
                del entry[pe]
                if not entry:
                    del contrib[pair]
                touched.add(pair)
                contrib.setdefault((barrier.id, v_id), {})[pe] = w_bv
                touched.add((barrier.id, v_id))
            contrib.setdefault((u_id, barrier.id), {})[pe] = w_ub
            touched.add((u_id, barrier.id))
        edits: dict[tuple[int, int], Interval | None] = {
            pair: self._joined_weight(pair) if pair in contrib else None
            for pair in touched
        }
        old_bd = self._bd_cache
        old_dom = self._dom_cache
        if old_bd is not None:
            reg = current_registry()
            if reg is not None:
                reg.inc("views.dag.evolved")
                if old_dom is not None:
                    reg.inc("views.dom.evolved")
            new_bd = old_bd.evolved_insert(barrier, edits)
            self._bd_cache = new_bd
            self._dom_cache = (
                DominatorTree.evolved(new_bd, old_dom, (barrier.id,))
                if old_dom is not None
                else None
            )
        else:
            self._dom_cache = None
        self._fire_cache = None
        if self._hb_cache is not None:
            self._patch_hb_insert(barrier, placements)
            if self._hbdesc_cache is not None:
                self._patch_hbdesc_insert(barrier)
        else:
            self._hbdesc_cache = None
        if self._check:
            self._verify_incremental()
        return barrier

    def replace_barrier(self, old: Barrier, new: Barrier) -> None:
        """Substitute ``new`` for ``old`` in every stream (merging step).

        The caller is responsible for having called ``new.absorb(old)``
        first so participant bookkeeping stays consistent."""
        if old.is_initial:
            raise ValueError("the initial barrier is never merged away")
        # A barrier sits on exactly its participants (check_structure), so
        # they are the only streams to search.
        swaps: list[tuple[int, int]] = []
        for pe in sorted(old.participants):
            pos = self._barindex[pe].get(old.id)
            if pos is not None and self.streams[pe][pos] is old:
                swaps.append((pe, pos))
        if not swaps:
            return
        # Pre-mutation neighbors: the swap only relabels one endpoint of
        # the stream's adjacent barrier pairs, region sums are untouched.
        moves: list[tuple[int, int, int, int | None]] = []
        for pe, pos in swaps:
            stream = self.streams[pe]
            barpos = self._barpos[pe]
            k = bisect_left(barpos, pos)
            x_id = stream[barpos[k - 1]].id  # b0 precedes any non-initial barrier
            y_id = stream[barpos[k + 1]].id if k + 1 < len(barpos) else None
            moves.append((pe, pos, x_id, y_id))
        for pe, pos, _, _ in moves:
            self.streams[pe][pos] = new
            barindex = self._barindex[pe]
            del barindex[old.id]
            barindex[new.id] = pos
        del self._registry[old.id]
        self._registry[new.id] = new
        # Move the per-stream contributions from old-keyed to new-keyed
        # pairs; values are unchanged.
        contrib = self._adj_contrib
        removed: set[tuple[int, int]] = set()
        gained: set[tuple[int, int]] = set()
        for pe, pos, x_id, y_id in moves:
            pairs = [((x_id, old.id), (x_id, new.id))]
            if y_id is not None:
                pairs.append(((old.id, y_id), (new.id, y_id)))
            for old_pair, new_pair in pairs:
                entry = contrib[old_pair]
                value = entry.pop(pe)
                if not entry:
                    del contrib[old_pair]
                removed.add(old_pair)
                contrib.setdefault(new_pair, {})[pe] = value
                gained.add(new_pair)
        edits: dict[tuple[int, int], Interval | None] = {
            pair: None for pair in removed
        }
        for pair in gained:
            edits[pair] = self._joined_weight(pair)
        old_bd = self._bd_cache
        old_dom = self._dom_cache
        if old_bd is not None:
            reg = current_registry()
            if reg is not None:
                reg.inc("views.dag.evolved")
                if old_dom is not None:
                    reg.inc("views.dom.evolved")
            new_bd = old_bd.evolved_replace(old.id, new, edits)
            self._bd_cache = new_bd
            if old_dom is not None:
                affected = {new.id}
                affected.update(v for _, v in edits)
                self._dom_cache = DominatorTree.evolved(new_bd, old_dom, affected)
            else:
                self._dom_cache = None
        else:
            self._dom_cache = None
        self._fire_cache = None
        if self._hb_cache is not None:
            self._patch_hb_replace(old, new)
        if self._hbdesc_cache is not None:
            self._patch_hbdesc_replace(old, new)
        if self._check:
            self._verify_incremental()

    # -- happens-before cache patches --------------------------------------------

    @staticmethod
    def _derive_hb_preds(
        succs: dict[HbKey, list[HbKey]]
    ) -> dict[HbKey, list[HbKey]]:
        preds: dict[HbKey, list[HbKey]] = {k: [] for k in succs}
        for key, outs in succs.items():
            for nxt in outs:
                preds[nxt].append(key)
        return preds

    def _patch_hb_append(self, pe: int, node: NodeId) -> None:
        succs = self._hb_cache
        preds = self._hb_pred_cache
        prev_key = _hb_key(self.streams[pe][-2])
        key = ("n", node)
        succs.setdefault(key, [])
        ins = preds.setdefault(key, [])
        outs = succs.setdefault(prev_key, [])
        preds.setdefault(prev_key, [])
        if key not in outs:
            outs.append(key)
            ins.append(prev_key)
        for g in self.dag.real_preds(node):
            if g in self._processor_of:
                gkey = ("n", g)
                succs.setdefault(gkey, []).append(key)
                preds.setdefault(gkey, [])
                ins.append(gkey)

    def _patch_hb_insert(self, barrier: Barrier, placements: dict[int, int]) -> None:
        # The implied prev->next stream edge is deliberately kept: extra
        # transitive edges never change H reachability, and dropping them
        # would need a per-edge membership scan.
        succs = self._hb_cache
        preds = self._hb_pred_cache
        bkey = ("b", barrier.id)
        succs.setdefault(bkey, [])
        bins = preds.setdefault(bkey, [])
        for pe, idx in placements.items():
            stream = self.streams[pe]
            pkey = _hb_key(stream[idx - 1])
            outs = succs.setdefault(pkey, [])
            preds.setdefault(pkey, [])
            if bkey not in outs:
                outs.append(bkey)
                bins.append(pkey)
            if idx + 1 < len(stream):
                nxt = _hb_key(stream[idx + 1])
                bouts = succs[bkey]
                if nxt not in bouts:
                    bouts.append(nxt)
                    preds.setdefault(nxt, []).append(bkey)

    def _patch_hb_replace(self, old: Barrier, new: Barrier) -> None:
        succs = self._hb_cache
        preds = self._hb_pred_cache
        okey, nkey = ("b", old.id), ("b", new.id)
        old_outs = succs.pop(okey, [])
        new_outs = succs.setdefault(nkey, [])
        nins = preds.setdefault(nkey, [])
        for k in old_outs:
            preds[k].remove(okey)
            if k != nkey and k not in new_outs:
                new_outs.append(k)
                preds[k].append(nkey)
        # Rewrite every edge into the victim.  Stream adjacencies put the
        # victim only in its swap streams' predecessor lists, but kept
        # implied edges (see _patch_hb_insert) may reference it from
        # items that are no longer adjacent; the pred mirror names every
        # referrer, so no full adjacency scan is needed.  (A barrier has
        # no duplicate in-edges: stream adjacency and the kept implied
        # edges are both inserted with membership checks, and data edges
        # only link instructions.)
        for p in preds.pop(okey, []):
            outs = succs[p]
            if nkey in outs:
                outs.remove(okey)
            else:
                outs[outs.index(okey)] = nkey
                nins.append(p)

    def _patch_hbdesc_insert(self, barrier: Barrier) -> None:
        # Every H edge the insert adds is incident to the new barrier, so
        # all *new* reachability routes through it, and (H being acyclic)
        # no closure of a barrier the new one reaches changes.  So each
        # walk stops at the first barrier on a route: going forward, that
        # barrier's cached set covers everything past it; going backward,
        # its barrier ancestors are exactly the ids whose sets hold it.
        # Only those ancestors gain (the new id plus its closure), and
        # they are patched in place: no caller holds the dict across an
        # insert.  (Called after _patch_hb_insert, so the graph includes
        # the new barrier already.)
        desc = self._hbdesc_cache
        succs = self._hb_cache
        bkey = ("b", barrier.id)
        forward: set[int] = set()
        seen: set[HbKey] = {bkey}
        stack: list[HbKey] = [bkey]
        while stack:
            for nxt in succs.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt[0] == "b":
                        forward.add(nxt[1])
                        forward.update(desc[nxt[1]])
                    else:
                        stack.append(nxt)
        preds = self._hb_pred_cache
        first: set[int] = set()
        seen = {bkey}
        stack = [bkey]
        while stack:
            for prv in preds.get(stack.pop(), ()):
                if prv not in seen:
                    seen.add(prv)
                    if prv[0] == "b":
                        first.add(prv[1])
                    else:
                        stack.append(prv)
        closure = frozenset(forward) | {barrier.id}
        for bid, d in desc.items():
            if bid in first or not first.isdisjoint(d):
                desc[bid] = d | closure
        desc[barrier.id] = frozenset(forward)

    def _patch_hbdesc_replace(self, old: Barrier, new: Barrier) -> None:
        desc = self._hbdesc_cache
        d_old = desc.get(old.id, frozenset())
        d_new = desc.get(new.id, frozenset())
        if new.id in d_old or old.id in d_new:
            # Fusing H-ordered barriers (never done by SBM merging, which
            # only merges H-unordered candidates) collapses a chain; the
            # closure-union patch below assumes unordered.  Recompute.
            self._hbdesc_cache = None
            return
        # Every node that reached either endpoint now reaches the fused
        # barrier and, transitively, the union of both closures.
        fused = d_old | d_new
        patched: dict[int, frozenset[int]] = {}
        for bid, d in desc.items():
            if bid == old.id:
                continue
            if bid == new.id:
                patched[bid] = frozenset(fused)
            elif old.id in d or new.id in d:
                patched[bid] = frozenset((d | fused | {new.id}) - {old.id})
            else:
                patched[bid] = d
        self._hbdesc_cache = patched

    # -- re-binding (ε-hardening support) ---------------------------------------

    def with_dag(self, dag: InstructionDAG) -> "Schedule":
        """A deep copy of this schedule bound to a different latency table.

        ``dag`` must contain every scheduled node (same node ids, same
        edges -- typically an ε-inflated variant built by
        :func:`repro.faults.model.inflate_dag`).  Barrier objects are
        cloned, not shared: barriers are mutable (merging widens their
        participant sets), so insertions and merges performed on the copy
        must never leak back into this schedule.
        """
        missing = [n for n in self._processor_of if n not in dag]
        if missing:
            raise ValueError(
                f"target DAG is missing scheduled nodes: {missing[:5]}..."
            )
        clone = Schedule(dag, self.n_pes, self.barrier_latency)
        copies: dict[int, Barrier] = {}
        for old in (self.initial_barrier, *self.barriers()):
            copy = Barrier(old.id, old.participants, is_initial=old.is_initial)
            copy.merged_from = list(old.merged_from)
            copies[old.id] = copy
        clone.initial_barrier = copies[self.initial_barrier.id]
        clone.idle_stream = (clone.initial_barrier,)
        clone.streams = [clone.idle_stream] * self.n_pes
        for pe in self._active:
            clone.streams[pe] = [
                copies[item.id] if isinstance(item, Barrier) else item
                for item in self.streams[pe]
            ]
        clone._active = list(self._active)
        clone._processor_of = dict(self._processor_of)
        clone._next_barrier_id = self._next_barrier_id
        clone._rebuild_tables()
        return clone

    # -- stream navigation ----------------------------------------------------------

    def last_barrier_before(self, pe: int, idx: int) -> Barrier:
        """``LastBar``: the nearest barrier at a position ``< idx`` on ``pe``.
        Always exists because every stream starts with ``b0``."""
        k = min(idx, len(self.streams[pe])) - 1
        if k < 0:
            raise AssertionError("stream missing its initial barrier")
        return self.streams[pe][self._lastbar[pe][k]]

    def next_barrier_after(self, pe: int, idx: int) -> Barrier | None:
        """``NextBar``: the nearest barrier at a position ``> idx``, if any."""
        barpos = self._barpos[pe]
        k = bisect_right(barpos, idx)
        if k < len(barpos):
            return self.streams[pe][barpos[k]]
        return None

    def barrier_position(self, barrier: Barrier, pe: int) -> int:
        pos = self._barindex[pe].get(barrier.id)
        if pos is None or self.streams[pe][pos] is not barrier:
            raise ValueError(f"barrier {barrier!r} not on PE {pe}")
        return pos

    def region_after(self, pe: int, barrier: Barrier) -> list[NodeId]:
        """Instructions on ``pe`` strictly after ``barrier`` up to the next
        barrier (or the end of the stream)."""
        stream = self.streams[pe]
        start = self.barrier_position(barrier, pe) + 1
        region: list[NodeId] = []
        for item in stream[start:]:
            if isinstance(item, Barrier):
                break
            region.append(item)
        return region

    # -- delta times (section 4.4.1 steps [3] and [4]) ----------------------------
    #
    # All O(1): barriers contribute zero latency, so a region sum is a
    # difference of two prefix sums and LastBar is one table lookup.

    def delta_through(self, node: NodeId) -> Interval:
        """Region time from just after ``LastBar(node)`` up to *and
        including* ``node``: ``delta_max`` uses ``.hi``, ``delta_min``
        uses ``.lo``."""
        pe, idx = self._pos[node]
        j = self._lastbar[pe][idx]
        cl, ch = self._cum_lo[pe], self._cum_hi[pe]
        return Interval(cl[idx + 1] - cl[j + 1], ch[idx + 1] - ch[j + 1])

    def delta_before(self, pe: int, idx: int) -> Interval:
        """Region time from just after the last barrier before ``idx`` up to
        but *excluding* the item at ``idx`` (the paper's
        ``delta(i-)`` quantities)."""
        i = min(idx, len(self.streams[pe]))
        if i <= 0:
            return ZERO
        j = self._lastbar[pe][i - 1]
        cl, ch = self._cum_lo[pe], self._cum_hi[pe]
        return Interval(cl[i] - cl[j + 1], ch[i] - ch[j + 1])

    def delta_through_hi(self, node: NodeId) -> int:
        """``delta_max`` through ``node`` as a bare int (hot-path variant
        of :meth:`delta_through` that allocates no Interval)."""
        pe, idx = self._pos[node]
        ch = self._cum_hi[pe]
        return ch[idx + 1] - ch[self._lastbar[pe][idx] + 1]

    def delta_before_lo(self, pe: int, idx: int) -> int:
        """``delta_min`` before index ``idx`` as a bare int."""
        i = min(idx, len(self.streams[pe]))
        if i <= 0:
            return 0
        cl = self._cum_lo[pe]
        return cl[i] - cl[self._lastbar[pe][i - 1] + 1]

    def delta_before_hi(self, pe: int, idx: int) -> int:
        """``delta_max`` before index ``idx`` as a bare int."""
        i = min(idx, len(self.streams[pe]))
        if i <= 0:
            return 0
        ch = self._cum_hi[pe]
        return ch[i] - ch[self._lastbar[pe][i - 1] + 1]

    # -- derived views, maintained incrementally --------------------------------------

    def barrier_dag(self) -> BarrierDag:
        if self._bd_cache is None:
            reg = current_registry()
            if reg is not None:
                reg.inc("views.dag.scratch")
            self._bd_cache = self._scratch_barrier_dag()
        return self._bd_cache

    def _scratch_barrier_dag(self) -> BarrierDag:
        """Full rebuild from the streams (cold cache, and the debug-mode
        reference the incremental snapshots are checked against).  Idle
        streams hold b0 alone, so only active ones are walked."""
        region: dict[tuple[int, int], Interval] = {}
        barriers: dict[int, Barrier] = {self.initial_barrier.id: self.initial_barrier}
        for pe in self._active:
            prev: Barrier | None = None
            acc = ZERO
            for item in self.streams[pe]:
                if isinstance(item, Barrier):
                    barriers.setdefault(item.id, item)
                    if prev is not None:
                        key = (prev.id, item.id)
                        joined = region.get(key)
                        region[key] = acc if joined is None else joined.join(acc)
                    prev = item
                    acc = ZERO
                else:
                    acc = acc + self.dag.latency(item)
        return BarrierDag(
            barriers.values(), region, self.initial_barrier, self.barrier_latency
        )

    def dominator_tree(self) -> DominatorTree:
        if self._dom_cache is None:
            reg = current_registry()
            if reg is not None:
                reg.inc("views.dom.scratch")
            self._dom_cache = DominatorTree(self.barrier_dag())
        return self._dom_cache

    def fire_times(self) -> dict[int, Interval]:
        if self._fire_cache is None:
            self._fire_cache = self.barrier_dag().fire_times()
        return self._fire_cache

    # -- the combined happens-before graph H ------------------------------------------
    #
    # Nodes: every scheduled instruction and every barrier.  Edges: stream
    # adjacency (consecutive items on each processor, through barriers) and
    # every committed producer/consumer data edge.  H is the complete
    # "happens-before" relation the schedule promises; it must stay acyclic
    # at all times -- a barrier insertion or merge that would make H cyclic
    # would force some consumer before its producer, which no amount of
    # further barrier insertion can repair.
    #
    # The cached adjacency is patched in place across mutations.  Barrier
    # insertion keeps the now-implied prev->next stream edge, so the cache
    # can be a *supergraph* of the scratch adjacency -- every extra edge is
    # transitively implied, so reachability (the only thing H is queried
    # for) is identical.

    def hb_successors(self) -> dict[HbKey, list[HbKey]]:
        """Adjacency of H.  Keys are ``("n", node)`` / ``("b", barrier_id)``."""
        if self._hb_cache is None:
            self._hb_cache = self._scratch_hb_successors()
            self._hb_pred_cache = self._derive_hb_preds(self._hb_cache)
        return self._hb_cache

    def _scratch_hb_successors(self) -> dict[HbKey, list[HbKey]]:
        # An idle stream adds only the b0 node, which heads every stream.
        succs: dict[HbKey, list[HbKey]] = {_hb_key(self.initial_barrier): []}
        for pe in self._active:
            prev_key: HbKey | None = None
            for item in self.streams[pe]:
                key = _hb_key(item)
                succs.setdefault(key, [])
                if prev_key is not None and key not in succs[prev_key]:
                    succs[prev_key].append(key)
                prev_key = key
        for g, i in self.dag.real_edges():
            if g in self._processor_of and i in self._processor_of:
                succs.setdefault(("n", g), []).append(("n", i))
        return succs

    def hb_reachable(self, src: HbKey, dst: HbKey) -> bool:
        """True iff ``src`` happens-before ``dst`` (or they are equal)."""
        if src == dst:
            return True
        succs = self.hb_successors()
        seen = {src}
        stack = [src]
        while stack:
            for nxt in succs.get(stack.pop(), ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def hb_barrier_ordered(self, a: int, b: int) -> bool:
        """True iff barriers ``a`` and ``b`` are comparable in H."""
        if a == b:
            return True
        desc = self.hb_barrier_descendants()
        return b in desc[a] or a in desc[b]

    def hb_barrier_descendants(self) -> dict[int, frozenset[int]]:
        """For each barrier, the set of barrier ids it happens-before.

        Computed in a single reverse-topological sweep over H with integer
        bitsets, then patched in place across appends, barrier insertions,
        and merges.
        """
        if self._hbdesc_cache is None:
            self._hbdesc_cache = self._scratch_hb_barrier_descendants(
                self.hb_successors()
            )
        return self._hbdesc_cache

    def _hb_topo_order(self, succs: dict[HbKey, list[HbKey]]) -> list[HbKey]:
        # Kahn topological order of H (acyclic by construction).
        in_deg: dict[HbKey, int] = {k: 0 for k in succs}
        for outs in succs.values():
            for nxt in outs:
                in_deg[nxt] = in_deg.get(nxt, 0) + 1
        frontier = [k for k, d in in_deg.items() if d == 0]
        order: list[HbKey] = []
        while frontier:
            key = frontier.pop()
            order.append(key)
            for nxt in succs.get(key, ()):
                in_deg[nxt] -= 1
                if in_deg[nxt] == 0:
                    frontier.append(nxt)
        if len(order) != len(in_deg):
            raise AssertionError("happens-before graph H contains a cycle")
        return order

    def _scratch_hb_barrier_descendants(
        self, succs: dict[HbKey, list[HbKey]]
    ) -> dict[int, frozenset[int]]:
        order = self._hb_topo_order(succs)

        barrier_ids = [b.id for b in self.barriers(include_initial=True)]
        bit_of = {bid: 1 << k for k, bid in enumerate(barrier_ids)}
        mask: dict[HbKey, int] = {}
        for key in reversed(order):
            acc = 0
            for nxt in succs.get(key, ()):
                acc |= mask.get(nxt, 0)
                if nxt[0] == "b":
                    acc |= bit_of[nxt[1]]
            mask[key] = acc

        result: dict[int, frozenset[int]] = {}
        for bid in barrier_ids:
            bits = mask.get(("b", bid), 0)
            result[bid] = frozenset(
                other for other in barrier_ids if bits & bit_of[other]
            )
        return result

    def hb_descendants_cold(self) -> bool:
        """True when :meth:`hb_barrier_descendants` would run the full
        scratch sweep (cache empty) -- the batched driver batches those
        sweeps across a corpus chunk."""
        return self._hbdesc_cache is None

    def hb_reach_inputs(self):
        """The scratch H sweep as batched-reachability inputs.

        Returns ``(succ_idx, self_bits, barrier_ids, barrier_pos)``:
        successor topological positions per H node, the per-position
        barrier bit masks (``1 << barrier index`` for barrier nodes,
        0 for instruction nodes), the barrier ids in bit order, and
        each barrier's position.  Feeding these to
        :func:`repro.kernels.batch.reach_batch` computes exactly the
        bitset sweep of :meth:`_scratch_hb_barrier_descendants`.
        """
        succs = self.hb_successors()
        order = self._hb_topo_order(succs)
        barrier_ids = [b.id for b in self.barriers(include_initial=True)]
        bit_of = {bid: 1 << k for k, bid in enumerate(barrier_ids)}
        pos = {key: i for i, key in enumerate(order)}
        succ_idx = [
            [pos[nxt] for nxt in succs.get(key, ())] for key in order
        ]
        self_bits = [
            bit_of[key[1]] if key[0] == "b" else 0 for key in order
        ]
        barrier_pos = [pos[("b", bid)] for bid in barrier_ids]
        return succ_idx, self_bits, barrier_ids, barrier_pos

    def adopt_hb_descendants(
        self, rows: list[int], barrier_ids: list[int], barrier_pos: list[int]
    ) -> None:
        """Install a batch-computed descendant closure as the cache.

        ``rows`` are the reachability bitsets for the ``hb_reach_inputs``
        positions; the extraction below mirrors the tail of
        :meth:`_scratch_hb_barrier_descendants`, so the adopted cache is
        exactly what the scratch sweep would have produced.
        """
        bit_of = {bid: 1 << k for k, bid in enumerate(barrier_ids)}
        result: dict[int, frozenset[int]] = {}
        for bid, p in zip(barrier_ids, barrier_pos):
            bits = rows[p]
            result[bid] = frozenset(
                other for other in barrier_ids if bits & bit_of[other]
            )
        self._hbdesc_cache = result

    def insertion_creates_hb_cycle(self, placements: dict[int, int]) -> bool:
        """Would inserting a barrier at ``placements`` make H cyclic?

        The new barrier's H-predecessors are the items just before each
        insertion point and its successors the items at each point; a
        cycle appears iff some successor already reaches some predecessor.
        """

        def key_at(pe: int, idx: int) -> HbKey | None:
            stream = self.streams[pe]
            if 0 <= idx < len(stream):
                return _hb_key(stream[idx])
            return None

        preds = [key_at(pe, idx - 1) for pe, idx in placements.items()]
        succs = [key_at(pe, idx) for pe, idx in placements.items()]
        for s in succs:
            if s is None:
                continue
            for p in preds:
                if p is None:
                    continue
                # p == s: the same (multi-processor) barrier sits just
                # before one insertion point and just after another, so
                # the new barrier would be ordered both ways against it.
                if p == s or self.hb_reachable(s, p):
                    return True
        return False

    # -- global timing queries --------------------------------------------------------

    def global_finish(self, node: NodeId) -> Interval:
        """``[min,max]`` finish time of ``node`` measured from machine start
        (conservative: via its last preceding barrier's fire time)."""
        pe, idx = self._pos[node]
        last = self.streams[pe][self._lastbar[pe][idx]]
        return self.fire_times()[last.id] + self.delta_through(node)

    def global_finish_hi(self, node: NodeId) -> int:
        """Upper bound of :meth:`global_finish` as a bare int (hot path:
        the scheduler's producer ordering and start estimates)."""
        pe, idx = self._pos[node]
        j = self._lastbar[pe][idx]
        ch = self._cum_hi[pe]
        return (
            self.fire_times()[self.streams[pe][j].id].hi + ch[idx + 1] - ch[j + 1]
        )

    def global_start(self, node: NodeId) -> Interval:
        """``[min,max]`` start time of ``node`` from machine start."""
        pe, idx = self._pos[node]
        last = self.streams[pe][self._lastbar[pe][idx]]
        return self.fire_times()[last.id] + self.delta_before(pe, idx)

    def completion(self, pe: int) -> Interval:
        """``[min,max]`` time at which processor ``pe`` finishes its stream."""
        stream = self.streams[pe]
        last_bar = self.last_barrier_before(pe, len(stream))
        trailing = self.delta_before(pe, len(stream))
        return self.fire_times()[last_bar.id] + trailing

    def completion_hi(self, pe: int) -> int:
        """Upper bound of :meth:`completion` as a bare int."""
        stream = self.streams[pe]
        n = len(stream)
        j = self._lastbar[pe][n - 1]
        ch = self._cum_hi[pe]
        return self.fire_times()[stream[j].id].hi + ch[n] - ch[j + 1]

    def completion_hi_all(self):
        """:meth:`completion_hi` of every PE as an int64 numpy vector (the
        assignment kernel's input).  Idle PEs finish when b0 fires, at 0,
        so only active PEs are computed."""
        np = kernels.numpy()
        vec = np.zeros(self.n_pes, dtype=np.int64)
        if self._active:
            vec[self._active] = [self.completion_hi(pe) for pe in self._active]
        return vec

    def makespan(self) -> Interval:
        """``[min,max]`` completion time of the whole schedule.  Idle PEs
        finish at ``[0,0]``, which never raises the join."""
        return interval_max(self.completion(pe) for pe in self._active)

    # -- debug cross-checks (REPRO_CHECK=1) --------------------------------------------

    def _verify_incremental(self) -> None:
        """Compare every maintained table and live cache against a scratch
        rebuild; raise AssertionError on the first divergence.

        Outcomes are surfaced as obs counters (``views.check.checked``
        counts view cross-checks performed, ``views.check.mismatches``
        counts divergences) so a ``REPRO_CHECK=1`` run can
        report how much it actually verified instead of passing
        silently.
        """
        reg = current_registry()
        try:
            checked = self._cross_check_views()
        except AssertionError:
            if reg is not None:
                reg.inc("views.check.mismatches")
            raise
        if reg is not None:
            reg.inc("views.check.checked", checked)

    def _cross_check_views(self) -> int:
        """The actual cross-checks; returns how many views were compared."""
        checked = 1
        self._verify_stream_tables()
        scratch_bd: BarrierDag | None = None
        if self._bd_cache is not None:
            checked += 1
            scratch_bd = self._scratch_barrier_dag()
            self._verify_dag(self._bd_cache, scratch_bd)
        if self._dom_cache is not None:
            checked += 1
            if scratch_bd is None:
                scratch_bd = self._scratch_barrier_dag()
            expect = DominatorTree(scratch_bd)._idom
            if self._dom_cache._idom != expect:
                raise AssertionError(
                    f"incremental dominators diverged: {self._dom_cache._idom} "
                    f"!= {expect}"
                )
        if self._fire_cache is not None:
            checked += 1
            if scratch_bd is None:
                scratch_bd = self._scratch_barrier_dag()
            if self._fire_cache != scratch_bd.fire_times():
                raise AssertionError("cached fire times diverged from scratch")
        if self._hb_cache is not None or self._hbdesc_cache is not None:
            scratch_hb = self._scratch_hb_successors()
            if self._hb_cache is not None:
                checked += 1
                self._verify_hb(self._hb_cache, scratch_hb)
                derived = self._derive_hb_preds(self._hb_cache)
                actual = self._hb_pred_cache or {}
                for key in derived.keys() | actual.keys():
                    want = sorted(map(repr, derived.get(key, [])))
                    have = sorted(map(repr, actual.get(key, [])))
                    if want != have:
                        raise AssertionError(
                            f"hb pred mirror diverged at {key}: "
                            f"{have} != {want}"
                        )
            if self._hbdesc_cache is not None:
                checked += 1
                expect_desc = self._scratch_hb_barrier_descendants(scratch_hb)
                if self._hbdesc_cache != expect_desc:
                    raise AssertionError(
                        "patched barrier descendant sets diverged from scratch"
                    )
        return checked

    def _verify_stream_tables(self) -> None:
        registry: dict[int, Barrier] = {}
        for stream in self.streams:
            for item in stream:
                if isinstance(item, Barrier):
                    registry.setdefault(item.id, item)
        if registry.keys() != self._registry.keys() or any(
            registry[bid] is not self._registry[bid] for bid in registry
        ):
            raise AssertionError("barrier registry diverged from streams")
        # Sparse state: the active set is exactly the non-idle streams,
        # and idle PEs share the idle stream and hold no tables.
        b0 = self.initial_barrier
        if len(self.idle_stream) != 1 or self.idle_stream[0] is not b0:
            raise AssertionError("the shared idle stream is not (b0,)")
        active = [
            pe
            for pe, stream in enumerate(self.streams)
            if len(stream) != 1 or stream[0] is not b0
        ]
        if active != self._active:
            raise AssertionError("active PE set diverged from the non-idle streams")
        active_set = set(active)
        if any(
            stream is not self.idle_stream
            for pe, stream in enumerate(self.streams)
            if pe not in active_set
        ):
            raise AssertionError("an idle PE does not share the idle stream")
        for table in (
            self._cum_lo, self._cum_hi, self._lastbar, self._barpos, self._barindex
        ):
            if table.keys() != active_set:
                raise AssertionError("per-PE tables exist for an idle PE")
        pos: dict[NodeId, tuple[int, int]] = {}
        for pe in active:
            stream = self.streams[pe]
            cum_lo = [0]
            cum_hi = [0]
            lastbar: list[int] = []
            barpos: list[int] = []
            barindex: dict[int, int] = {}
            lo = hi = 0
            last = -1
            for k, item in enumerate(stream):
                if isinstance(item, Barrier):
                    barpos.append(k)
                    barindex[item.id] = k
                    last = k
                else:
                    lat = self.dag.latency(item)
                    lo += lat.lo
                    hi += lat.hi
                    pos[item] = (pe, k)
                cum_lo.append(lo)
                cum_hi.append(hi)
                lastbar.append(last)
            if (
                cum_lo != self._cum_lo[pe]
                or cum_hi != self._cum_hi[pe]
                or lastbar != self._lastbar[pe]
                or barpos != self._barpos[pe]
                or barindex != self._barindex[pe]
            ):
                raise AssertionError(f"stream tables diverged on PE {pe}")
        if pos != self._pos:
            raise AssertionError("instruction position table diverged")
        contrib = self._adj_contrib
        self._rebuild_contrib()
        if contrib != self._adj_contrib:
            raise AssertionError("edge contribution table diverged")
        self._adj_contrib = contrib

    @staticmethod
    def _verify_dag(evolved: BarrierDag, scratch: BarrierDag) -> None:
        if evolved._barriers.keys() != scratch._barriers.keys():
            raise AssertionError("evolved dag barrier set diverged")
        if evolved._weight != scratch._weight:
            raise AssertionError("evolved dag edge weights diverged")
        index = evolved._order_index
        for (u, v) in evolved._weight:
            if index[u] >= index[v]:
                raise AssertionError(
                    f"evolved topological order violates edge ({u},{v})"
                )
        if evolved._topo[0] != evolved.initial.id:
            raise AssertionError("evolved topological order must start at b0")
        if evolved._fire is not None and dict(evolved._fire) != scratch.fire_times():
            raise AssertionError("evolved fire times diverged")
        if evolved._desc_bits is not None:
            topo = evolved._topo
            for k, word in enumerate(evolved._desc_bits):
                got = {topo[i] for i in range(len(topo)) if (word >> i) & 1}
                if got != scratch.descendants(topo[k]):
                    raise AssertionError(
                        f"patched descendant bitset diverged for barrier {topo[k]}"
                    )

    @staticmethod
    def _verify_hb(
        patched: dict[HbKey, list[HbKey]], scratch: dict[HbKey, list[HbKey]]
    ) -> None:
        if patched.keys() != scratch.keys():
            raise AssertionError("patched H node set diverged")
        # The patched adjacency may keep transitively-implied edges; it is
        # correct iff it is a supergraph whose extras are already implied
        # by the scratch graph (then reachability is identical).
        for key, outs in scratch.items():
            missing = [k for k in outs if k not in patched[key]]
            if missing:
                raise AssertionError(f"patched H lost edges {key} -> {missing}")
        for key, outs in patched.items():
            base = scratch[key]
            for extra in outs:
                if extra in base:
                    continue
                seen = {key}
                stack = [key]
                found = False
                while stack and not found:
                    for nxt in scratch.get(stack.pop(), ()):
                        if nxt == extra:
                            found = True
                            break
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                if not found:
                    raise AssertionError(
                        f"patched H edge {key} -> {extra} is not implied"
                    )

    # -- rendering -----------------------------------------------------------------------

    def render(self) -> str:
        """Text dump: one line per processor stream."""
        lines = []
        for pe, stream in enumerate(self.streams):
            parts = []
            for item in stream:
                if isinstance(item, Barrier):
                    parts.append(f"|b{item.id}|")
                else:
                    parts.append(str(item))
            lines.append(f"PE{pe}: " + " ".join(parts))
        return "\n".join(lines)

    def __iter__(self) -> Iterator[tuple[int, list[Item]]]:
        return iter(enumerate(self.streams))
