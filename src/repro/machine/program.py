"""Lowering a schedule to the machine-level program the hardware executes.

A :class:`MachineProgram` is what the barrier-MIMD "loader" would place
in each processor's instruction memory and the barrier controller's
queue: per-PE streams of :class:`MachineOp` (with latency intervals) and
:class:`BarrierRef` wait instructions, plus one
:class:`~repro.barriers.mask.BarrierMask` per barrier.

For the SBM the program also fixes the *total* barrier order loaded into
the FIFO queue (any linear extension of ``<_b`` is valid and
deadlock-free; we use the barrier dag's deterministic topological
order).  The producer/consumer edge list rides along so an execution
trace can be verified against the original DAG.

A 1024-PE block keeps about a dozen PEs busy.  Lowering builds streams
for those PEs only; every other PE gets the one shared
:func:`idle_stream` tuple (the start wait alone), and
:attr:`MachineProgram.live_pes` lists the PEs whose stream is anything
else, so the engine can run the idle PEs as one class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import compress, repeat
from operator import is_not
from typing import Sequence, Union

from repro.barriers.mask import BarrierMask
from repro.timing import Interval
from repro.core.schedule import Schedule
from repro.ir.dag import NodeId
from repro.ir.tuples import IRTuple

__all__ = ["MachineOp", "BarrierRef", "MachineProgram", "idle_stream"]


def _queue_order(schedule: Schedule, bd, fire) -> tuple[int, ...]:
    """Topological sort of the barriers' happens-before relation plus
    disjoint-window edges (see :meth:`MachineProgram.from_schedule`)."""
    desc = schedule.hb_barrier_descendants()
    succs: dict[int, set[int]] = {bid: set(d) for bid, d in desc.items()}
    ids = list(succs)
    for a_idx, a in enumerate(ids):
        for b in ids[a_idx + 1:]:
            if b in succs[a] or a in succs[b]:
                continue
            if fire[a].hi < fire[b].lo:
                succs[a].add(b)
            elif fire[b].hi < fire[a].lo:
                succs[b].add(a)
    in_deg = {bid: 0 for bid in ids}
    for bid, out in succs.items():
        for s in out:
            in_deg[s] += 1
    frontier = sorted(
        (bid for bid, d in in_deg.items() if d == 0),
        key=lambda bid: (fire[bid].lo, fire[bid].hi, bid),
    )
    order: list[int] = []
    while frontier:
        bid = frontier.pop(0)
        order.append(bid)
        ready = []
        for s in succs[bid]:
            in_deg[s] -= 1
            if in_deg[s] == 0:
                ready.append(s)
        frontier.extend(ready)
        frontier.sort(key=lambda b: (fire[b].lo, fire[b].hi, b))
    if len(order) != len(ids):
        raise ValueError(
            "barrier run-time order constraints are cyclic: schedule is unsound"
        )
    return tuple(order)


@dataclass(frozen=True, slots=True)
class MachineOp:
    """One executable instruction with its static latency interval."""

    node: NodeId
    latency: Interval
    mnemonic: str = ""


@dataclass(frozen=True, slots=True)
class BarrierRef:
    """A wait instruction naming the barrier it participates in."""

    barrier_id: int


StreamItem = Union[MachineOp, BarrierRef]


def _no_mask(pe: int, barrier_id: int) -> ValueError:
    return ValueError(f"PE {pe} waits on barrier b{barrier_id}, which has no mask")


@cache
def idle_stream(initial_barrier_id: int) -> tuple[BarrierRef]:
    """The stream every idle PE shares: the start wait alone.

    One tuple per start-barrier id, so a program recognizes its idle
    PEs by identity, without an element-wise comparison per PE."""
    return (BarrierRef(initial_barrier_id),)


@dataclass(frozen=True)
class MachineProgram:
    """Loader image: streams, barrier masks, SBM queue order, DAG edges."""

    n_pes: int
    streams: tuple[tuple[StreamItem, ...], ...]
    masks: dict[int, BarrierMask]
    #: Total order for the SBM FIFO (a linear extension of ``<_b``),
    #: including the initial barrier first.
    barrier_order: tuple[int, ...]
    initial_barrier_id: int
    #: Producer/consumer edges for post-execution verification.
    edges: tuple[tuple[NodeId, NodeId], ...]
    #: Release latency of every non-initial barrier (hardware model).
    barrier_latency: int = 0
    #: Dynamic data guards of a hybrid program: ``consumer -> producers``
    #: for every demoted (timing-fragile) edge.  Before executing a
    #: guarded consumer the engine waits -- DBM-style wait-for-data --
    #: until every listed producer has finished.  Empty for pure-static
    #: programs, so the loader image is unchanged unless the hybrid
    #: scheduler actually demoted something.
    guards: dict[NodeId, tuple[NodeId, ...]] = field(default_factory=dict)
    #: Ascending PEs whose stream is not the shared :func:`idle_stream`
    #: object (derived on construction).  A stream that merely equals it,
    #: as in a hand-built program, counts as live; the engine runs live
    #: PEs one by one and the rest as one class.
    live_pes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _participants: dict[int, Sequence[int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if len(self.streams) != self.n_pes:
            raise ValueError("one stream per processor required")
        if set(self.barrier_order) != set(self.masks):
            raise ValueError("barrier_order and masks disagree")
        if self.barrier_order and self.barrier_order[0] != self.initial_barrier_id:
            raise ValueError("the initial barrier must head the queue")
        idle = idle_stream(self.initial_barrier_id)
        live = tuple(
            compress(range(self.n_pes), map(is_not, self.streams, repeat(idle)))
        )
        object.__setattr__(self, "live_pes", live)
        masks = self.masks
        for pe in live:
            for item in self.streams[pe]:
                if isinstance(item, BarrierRef) and item.barrier_id not in masks:
                    raise _no_mask(pe, item.barrier_id)
        if len(live) < self.n_pes and self.initial_barrier_id not in masks:
            # The shared idle stream is checked once, on its lowest PE.
            first_idle = next(
                (k for k, pe in enumerate(live) if k != pe), len(live)
            )
            raise _no_mask(first_idle, self.initial_barrier_id)

    def participants(self, barrier_id: int) -> Sequence[int]:
        """Ascending PEs of ``barrier_id``'s mask, built once per program
        (``range(n_pes)`` for the full start barrier)."""
        pes = self._participants.get(barrier_id)
        if pes is None:
            pes = self._participants[barrier_id] = self.masks[
                barrier_id
            ].participants()
        return pes

    @staticmethod
    def from_schedule(
        schedule: Schedule,
        guards: dict[NodeId, tuple[NodeId, ...]] | None = None,
    ) -> "MachineProgram":
        """Lower a finished schedule.

        The SBM queue must present barriers in an order consistent with
        *every* possible run-time arrival order.  Two barriers have a
        forced run-time order when they are comparable in the schedule's
        happens-before graph H (stream order plus all committed data
        edges; see :meth:`repro.core.schedule.Schedule.hb_barrier_ordered`),
        or when their static fire windows are disjoint.  The SBM merging
        invariant guarantees every pair falls in one of those cases, and
        the union of both relations is acyclic (each edge means "always
        fires no later than"), so a topological sort of the union yields
        a queue whose FIFO head never stalls.

        Only the schedule's active PEs are lowered; every idle PE shares
        :func:`idle_stream`, and the start barrier's mask is the full one
        (it spans every PE by construction)."""
        n_pes = schedule.n_pes
        dag = schedule.dag
        bd = schedule.barrier_dag()
        fire = bd.fire_times()
        order = _queue_order(schedule, bd, fire)
        masks: dict[int, BarrierMask] = {}
        for barrier in bd.barriers():
            masks[barrier.id] = (
                BarrierMask.full(n_pes)
                if barrier.is_initial
                else BarrierMask.from_pes(barrier.participants, n_pes)
            )
        streams: list[tuple[StreamItem, ...]] = [
            idle_stream(schedule.initial_barrier.id)
        ] * n_pes
        for pe in schedule.active_pes:
            items: list[StreamItem] = []
            for item in schedule.streams[pe]:
                if hasattr(item, "participants"):  # Barrier
                    items.append(BarrierRef(item.id))
                else:
                    payload = dag.payload(item)
                    mnemonic = (
                        payload.render() if isinstance(payload, IRTuple) else str(item)
                    )
                    items.append(MachineOp(item, dag.latency(item), mnemonic))
            streams[pe] = tuple(items)
        return MachineProgram(
            n_pes=n_pes,
            streams=tuple(streams),
            masks=masks,
            barrier_order=order,
            initial_barrier_id=schedule.initial_barrier.id,
            edges=tuple(schedule.dag.real_edges()),
            barrier_latency=schedule.barrier_latency,
            guards=dict(guards) if guards else {},
        )

    @property
    def n_instructions(self) -> int:
        return sum(
            1 for stream in self.streams for it in stream if isinstance(it, MachineOp)
        )

    @property
    def n_barriers(self) -> int:
        """Barriers excluding the initial machine-start barrier."""
        return len(self.masks) - 1

    @property
    def n_guards(self) -> int:
        """Demoted edges resolved dynamically (0 for static programs)."""
        return sum(len(ps) for ps in self.guards.values())

    def render(self) -> str:
        lines = [f"barrier queue: {' '.join('b%d' % b for b in self.barrier_order)}"]
        if self.guards:
            waits = " ".join(
                f"{consumer!s}<-({', '.join(str(p) for p in ps)})"
                for consumer, ps in sorted(
                    self.guards.items(), key=lambda kv: str(kv[0])
                )
            )
            lines.append(f"data guards: {waits}")
        for pe, stream in enumerate(self.streams):
            parts = []
            for item in stream:
                if isinstance(item, BarrierRef):
                    parts.append(f"wait(b{item.barrier_id})")
                else:
                    parts.append(item.mnemonic or str(item.node))
            lines.append(f"PE{pe}: " + "; ".join(parts))
        return "\n".join(lines)
