"""The instruction DAG ``G(N, A)`` (paper sections 2.2 and 4.1).

Nodes are instructions; a directed edge ``(i, j)`` records the
producer/consumer precedence "j consumes the value produced by i".  Each
edge is one *implied synchronization* -- the unit in which all of the
paper's synchronization fractions are expressed (section 3.1).

Following section 4.1, the DAG is given unique *dummy* entry and exit
nodes with zero execution time, so that every instruction lies on a path
``entry -> ... -> exit``; the dummies and their edges are bookkeeping only
and are excluded from the implied-synchronization count.

The class is deliberately generic: nodes can carry any payload (they carry
:class:`~repro.ir.tuples.IRTuple` objects when built by
:meth:`InstructionDAG.from_program`, but examples and tests also build
DAGs directly from latency tables), and a :func:`to_networkx` view is
provided for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from repro.timing import Interval, ZERO
from repro.ir.ops import TimingModel, DEFAULT_TIMING
from repro.ir.tuples import IRTuple, TupleProgram

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["NodeId", "ENTRY", "EXIT", "CycleError", "InstructionDAG"]

NodeId = Hashable

#: Dummy source node (zero time), added automatically.
ENTRY: NodeId = "__entry__"
#: Dummy sink node (zero time), added automatically.
EXIT: NodeId = "__exit__"


class CycleError(ValueError):
    """The supplied edge set contains a cycle (not a DAG)."""


@dataclass(frozen=True)
class InstructionDAG:
    """An immutable weighted DAG of instructions with dummy entry/exit.

    Parameters
    ----------
    latencies:
        ``node -> Interval`` execution-time table for the *real* nodes.
    edges:
        Producer/consumer pairs over real nodes.
    payload:
        Optional ``node -> object`` table (tuples, labels, ...).
    """

    _latency: dict[NodeId, Interval]
    _succs: dict[NodeId, tuple[NodeId, ...]]
    _preds: dict[NodeId, tuple[NodeId, ...]]
    _topo: tuple[NodeId, ...]
    _payload: dict[NodeId, object]

    # -- construction -------------------------------------------------------

    @staticmethod
    def build(
        latencies: Mapping[NodeId, Interval],
        edges: Iterable[tuple[NodeId, NodeId]],
        payload: Mapping[NodeId, object] | None = None,
    ) -> "InstructionDAG":
        if ENTRY in latencies or EXIT in latencies:
            raise ValueError("ENTRY/EXIT are reserved node ids")
        latency: dict[NodeId, Interval] = {ENTRY: ZERO, EXIT: ZERO}
        latency.update(latencies)

        succs: dict[NodeId, list[NodeId]] = {n: [] for n in latency}
        preds: dict[NodeId, list[NodeId]] = {n: [] for n in latency}
        seen_edges: set[tuple[NodeId, NodeId]] = set()
        for u, v in edges:
            if u not in latencies or v not in latencies:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if u == v:
                raise CycleError(f"self-loop on {u!r}")
            if (u, v) in seen_edges:
                continue  # duplicate operand (e.g. Add 4,4): one precedence edge
            seen_edges.add((u, v))
            succs[u].append(v)
            preds[v].append(u)

        # Dummy wiring: entry feeds every source, every sink feeds exit.
        for node in latencies:
            if not preds[node]:
                succs[ENTRY].append(node)
                preds[node].append(ENTRY)
            if not succs[node]:
                succs[node].append(EXIT)
                preds[EXIT].append(node)
        if not latencies:  # empty program: entry -> exit
            succs[ENTRY].append(EXIT)
            preds[EXIT].append(ENTRY)

        topo = _topological_order(latency, succs, preds)
        return InstructionDAG(
            _latency=latency,
            _succs={n: tuple(s) for n, s in succs.items()},
            _preds={n: tuple(p) for n, p in preds.items()},
            _topo=topo,
            _payload=dict(payload or {}),
        )

    @staticmethod
    def from_program(
        program: TupleProgram, timing: TimingModel = DEFAULT_TIMING
    ) -> "InstructionDAG":
        """Build the DAG of an (ideally optimized) tuple program.

        Edges are exactly the value dependences: one edge per distinct
        ``Ref`` operand.  There are no memory-ordering edges: within a
        block no Load follows a Store of the same variable (the code
        generator forwards assigned values), and dead earlier stores are
        assumed removed by DCE, matching the paper's pipeline.
        """
        latencies = {tup.id: timing[tup.opcode] for tup in program}
        edge_list: list[tuple[NodeId, NodeId]] = []
        for tup in program:
            for ref in tup.refs:
                edge_list.append((ref, tup.id))
        payload = {tup.id: tup for tup in program}
        return InstructionDAG.build(latencies, edge_list, payload)

    # -- basic queries --------------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes including the dummies, in topological order."""
        return self._topo

    @property
    def real_nodes(self) -> tuple[NodeId, ...]:
        """Instruction nodes (no dummies), in topological order."""
        # Dummies are matched by value, not identity: a dag that crossed
        # a process boundary (pickle) carries non-interned sentinels.
        return tuple(n for n in self._topo if n != ENTRY and n != EXIT)

    def __len__(self) -> int:
        return len(self._topo) - 2

    def __contains__(self, node: NodeId) -> bool:
        return node in self._latency

    def latency(self, node: NodeId) -> Interval:
        return self._latency[node]

    def payload(self, node: NodeId) -> object | None:
        return self._payload.get(node)

    def tuple_of(self, node: NodeId) -> IRTuple:
        obj = self._payload.get(node)
        if not isinstance(obj, IRTuple):
            raise KeyError(f"node {node!r} carries no IRTuple payload")
        return obj

    def succs(self, node: NodeId) -> tuple[NodeId, ...]:
        return self._succs[node]

    def preds(self, node: NodeId) -> tuple[NodeId, ...]:
        return self._preds[node]

    def real_preds(self, node: NodeId) -> tuple[NodeId, ...]:
        # ENTRY feeds exactly the nodes without a real predecessor, so a
        # stored tuple either is ``(ENTRY,)`` or holds no dummy at all.
        preds = self._preds[node]
        return () if preds and preds[0] == ENTRY else preds

    def real_succs(self, node: NodeId) -> tuple[NodeId, ...]:
        # Likewise EXIT drains exactly the nodes without a real successor.
        succs = self._succs[node]
        return () if succs and succs[0] == EXIT else succs

    def real_edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Producer/consumer edges between instruction nodes only."""
        for u in self._topo:
            if u == ENTRY:
                continue
            for v in self._succs[u]:
                if v != EXIT:
                    yield (u, v)

    @property
    def implied_synchronizations(self) -> int:
        """Edge count between real nodes: the paper's *Total Implied
        Synchronizations* (section 3.1), denominator of every fraction."""
        return sum(1 for _ in self.real_edges())

    # -- timing analyses --------------------------------------------------------

    def finish_levels(self) -> dict[NodeId, Interval]:
        """Earliest ``[min,max]`` *finish* time of each node on infinitely
        many processors (the two rightmost columns of figure 1).

        ``level(n) = join over preds p of level(p), plus latency(n)``.
        """
        levels: dict[NodeId, Interval] = {}
        for node in self._topo:
            ready = ZERO
            for p in self._preds[node]:
                ready = ready.join(levels[p])
            levels[node] = ready + self._latency[node]
        return levels

    def critical_path(self) -> Interval:
        """``t_cr`` of section 4.1 as an interval: the longest entry->exit
        path under minimum and under maximum execution times.  Its max
        component is a lower bound on any schedule's worst-case makespan."""
        return self.finish_levels()[EXIT]

    def parallelism_width(self) -> float:
        """Total maximum work divided by the max critical path: a coarse
        measure of how many processors the block can keep busy (the paper
        ties this to the number of variables, section 5.2)."""
        total = sum(self._latency[n].hi for n in self.real_nodes)
        cp = self.critical_path().hi
        return total / cp if cp else 0.0

    # -- interoperability ----------------------------------------------------------

    def to_networkx(self, include_dummies: bool = False) -> "nx.DiGraph":
        import networkx as nx  # local: the block path never loads networkx

        graph = nx.DiGraph()
        nodes = self._topo if include_dummies else self.real_nodes
        for node in nodes:
            graph.add_node(node, latency=self._latency[node], payload=self._payload.get(node))
        edge_iter = (
            ((u, v) for u in self._topo for v in self._succs[u])
            if include_dummies
            else self.real_edges()
        )
        graph.add_edges_from(edge_iter)
        return graph

    def render(self) -> str:
        """Small text rendering for debugging: one line per real node."""
        lines = []
        for node in self.real_nodes:
            preds = ",".join(str(p) for p in self.real_preds(node)) or "-"
            obj = self._payload.get(node)
            desc = obj.render() if isinstance(obj, IRTuple) else str(node)
            lines.append(f"{node!s:>6} {self._latency[node]!s:>9}  <- {preds:<12} {desc}")
        return "\n".join(lines)


def _topological_order(
    latency: Mapping[NodeId, Interval],
    succs: Mapping[NodeId, list[NodeId]],
    preds: Mapping[NodeId, list[NodeId]],
) -> tuple[NodeId, ...]:
    """Kahn's algorithm; raises :class:`CycleError` if not a DAG."""
    in_deg = {n: len(preds[n]) for n in latency}
    frontier = [n for n, d in in_deg.items() if d == 0]
    order: list[NodeId] = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for s in succs[node]:
            in_deg[s] -= 1
            if in_deg[s] == 0:
                frontier.append(s)
    if len(order) != len(latency):
        raise CycleError("instruction graph contains a cycle")
    return tuple(order)
