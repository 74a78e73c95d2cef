"""Dynamic Barrier MIMD simulator (paper section 3.2).

The DBM replaces the SBM's FIFO queue with an associative matching
memory: *any* enqueued barrier whose participants are all waiting fires,
in whatever order run-time arrivals dictate.  This removes the SBM's
head-of-queue serialization (and the need for barrier merging) at the
cost of more expensive hardware [OKDi90].

When several barriers become ready, the controller fires the one whose
last participant arrived earliest (ties by barrier id) -- the order a
real associative match would observe events in; ready barriers always
have disjoint waiter sets, so the choice never affects correctness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.machine.durations import DurationSampler
from repro.machine.engine import participant_arrivals, run_machine
from repro.machine.program import MachineProgram
from repro.machine.trace import ExecutionTrace

__all__ = ["simulate_dbm"]


@dataclass
class DBMController:
    """Associative firing rule: any fully-arrived barrier may execute.

    Readiness is the SBM head's flat participant check
    (:func:`~repro.machine.engine.participant_arrivals`), applied to
    every barrier some processor waits on."""

    program: MachineProgram

    def select(
        self, waiting: dict[int, int], arrival: dict[int, int]
    ) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None  # (fire_time, barrier_id)
        for barrier_id in set(waiting.values()):
            times = participant_arrivals(self.program, barrier_id, waiting, arrival)
            if times is not None:
                fire_time = max(times)
                if best is None or (fire_time, barrier_id) < best:
                    best = (fire_time, barrier_id)
        if best is None:
            return None
        fire_time, barrier_id = best
        return barrier_id, fire_time


def simulate_dbm(
    program: MachineProgram,
    sampler: DurationSampler | None = None,
    rng: random.Random | int | None = None,
    allow_overrun: bool = False,
) -> ExecutionTrace:
    """One DBM execution of ``program`` under ``sampler``."""
    return run_machine(
        program, DBMController(program), "dbm", sampler, rng, allow_overrun
    )
