"""Figure 9 style barrier-embedding diagrams.

Processors are vertical columns; time flows downward; a barrier is a
horizontal rule spanning exactly its participants, labeled with its id.
Instructions show their node label (and mnemonic when the DAG carries
tuple payloads).

Example (3 PEs)::

    PE0        PE1        PE2
    =========b0==========>
    Load a     Load b     .
    ====b1====>           .
    Add 0,1    .          Load c
    ==========b2=========>
"""

from __future__ import annotations

from repro.barriers.model import Barrier
from repro.core.schedule import Schedule
from repro.ir.tuples import IRTuple

__all__ = ["render_embedding", "render_barrier_dag"]

_COL = 12


def _label(schedule: Schedule, node: object) -> str:
    payload = schedule.dag.payload(node)
    if isinstance(payload, IRTuple):
        return payload.render()[: _COL - 2]
    return str(node)[: _COL - 2]


def render_embedding(schedule: Schedule) -> str:
    """Draw the schedule as a figure 9 style barrier embedding."""
    n = schedule.n_pes
    # Build a global row sequence: walk all streams in lockstep; barriers
    # synchronize the walk (every participant must reach the barrier
    # before its rule is drawn).
    cursors = [1] * n  # skip b0 at position 0
    rows: list[str] = []
    header = "".join(f"PE{pe}".ljust(_COL) for pe in range(n))
    rows.append(header)
    rows.append(_barrier_rule(schedule.initial_barrier, n))

    guard = sum(len(s) for s in schedule.streams) + len(schedule.barriers()) + 4
    for _ in range(guard):
        active = [pe for pe in range(n) if cursors[pe] < len(schedule.streams[pe])]
        if not active:
            break
        # Emit one row of instructions: every active PE whose next item is
        # an instruction advances; PEs waiting at a barrier print '.'.
        line = []
        progressed = False
        waiting_barriers: dict[int, Barrier] = {}
        for pe in range(n):
            stream = schedule.streams[pe]
            if cursors[pe] >= len(stream):
                line.append(" " * _COL)
                continue
            item = stream[cursors[pe]]
            if isinstance(item, Barrier):
                waiting_barriers[pe] = item
                line.append(".".ljust(_COL))
            else:
                line.append(_label(schedule, item).ljust(_COL))
                cursors[pe] += 1
                progressed = True
        if progressed:
            rows.append("".join(line).rstrip())
        # Fire every barrier whose participants are all waiting at it.
        for barrier in list(dict.fromkeys(waiting_barriers.values())):
            ready = all(
                waiting_barriers.get(pe) is barrier for pe in barrier.participants
            )
            if ready:
                rows.append(_barrier_rule(barrier, n))
                for pe in barrier.participants:
                    cursors[pe] += 1
                progressed = True
        if not progressed:
            rows.append("!! deadlocked rendering (inconsistent schedule)")
            break
    return "\n".join(rows)


def _barrier_rule(barrier: Barrier, n_pes: int) -> str:
    lo = min(barrier.participants)
    hi = max(barrier.participants)
    label = f"b{barrier.id}"
    cells = []
    for pe in range(n_pes):
        if lo <= pe <= hi:
            cells.append("=" * _COL)
        else:
            cells.append(" " * _COL)
    rule = "".join(cells)
    # Stamp the label near the left edge of the spanned region.
    pos = lo * _COL + 2
    rule = rule[:pos] + label + rule[pos + len(label):]
    return rule[: (hi + 1) * _COL].rstrip() + ">"


def render_barrier_dag(schedule: Schedule) -> str:
    """Pretty-print the barrier partial order with fire-time windows."""
    bd = schedule.barrier_dag()
    fire = bd.fire_times()
    lines = ["barrier dag (B, <_b):"]
    for bid in bd.barrier_ids:
        barrier = bd.barrier(bid)
        succs = ", ".join(
            f"b{s} {bd.weight(bid, s)}" for s in sorted(bd.succs(bid))
        )
        pes = ",".join(str(p) for p in sorted(barrier.participants))
        lines.append(
            f"  b{bid:<3} fire={fire[bid]!s:<10} PEs[{pes}] -> {succs or '(sink)'}"
        )
    return "\n".join(lines)
