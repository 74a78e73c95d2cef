"""Static Barrier MIMD simulator (paper section 3.2, figure 11).

The SBM barrier hardware is a FIFO queue of barrier bit masks loaded at
compile time.  Only the queue *head* may fire: it does so when every
processor in its mask has raised its WAIT line, releasing all of them on
the same clock tick.  A processor waiting on a later barrier simply keeps
waiting until that barrier reaches the head.

Consequently the head can fire no earlier than the previous head did --
an SBM-specific serialization of barrier releases which is why the paper
merges unordered, time-overlapping barriers for SBM schedules (section
4.4.3): merged barriers cannot arrive at the queue in the "wrong" order.

A well-formed queue (any linear extension of the barrier dag ``<_b``,
which :class:`~repro.machine.program.MachineProgram` guarantees) can
never deadlock: if the head waits on processor ``p``, then ``p`` has not
yet passed the head barrier, and every barrier blocking ``p`` would have
to precede the head in ``<_b`` -- contradiction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.machine.durations import DurationSampler
from repro.machine.engine import participant_arrivals, run_machine
from repro.machine.program import MachineProgram
from repro.machine.trace import ExecutionTrace

__all__ = ["simulate_sbm"]


@dataclass
class SBMController:
    """FIFO firing rule: only ``queue[head]`` may execute.

    The head is ready when every participant's WAIT line names it
    (:func:`~repro.machine.engine.participant_arrivals`, a flat check in
    C over the head's cached participants).
    """

    program: MachineProgram
    head: int = 0
    last_fire: int = 0
    fired: list[int] = field(default_factory=list)

    def pending(self) -> int | None:
        """The barrier at the queue head (None once the queue drained).

        Surfaced in the engine's deadlock diagnostic: a hung SBM is
        always stuck on its head, so naming it (plus the participants
        that never arrived) localizes the hang immediately.
        """
        if self.head >= len(self.program.barrier_order):
            return None
        return self.program.barrier_order[self.head]

    def select(
        self, waiting: dict[int, int], arrival: dict[int, int]
    ) -> tuple[int, int] | None:
        if self.head >= len(self.program.barrier_order):
            return None
        barrier_id = self.program.barrier_order[self.head]
        times = participant_arrivals(self.program, barrier_id, waiting, arrival)
        if times is None:
            return None  # some participant has not arrived at the head
        fire_time = max(self.last_fire, max(times, default=self.last_fire))
        self.head += 1
        self.last_fire = fire_time
        self.fired.append(barrier_id)
        return barrier_id, fire_time


def simulate_sbm(
    program: MachineProgram,
    sampler: DurationSampler | None = None,
    rng: random.Random | int | None = None,
    allow_overrun: bool = False,
) -> ExecutionTrace:
    """One SBM execution of ``program`` under ``sampler``."""
    return run_machine(
        program, SBMController(program), "sbm", sampler, rng, allow_overrun
    )
