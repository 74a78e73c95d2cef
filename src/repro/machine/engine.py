"""Shared discrete-event execution loop for the barrier machines.

Between barriers the processors are independent, so simulation needs no
global event queue: each processor runs ahead until it blocks at a wait
instruction, then a machine-specific *barrier controller* decides which
barrier fires next and at what time.  The loop alternates the two phases
until every processor retires its stream.

Controllers implement one method, :meth:`BarrierController.select`:
given who is waiting where (and since when), return the next barrier to
fire and its fire time, or ``None`` if nothing can fire.  ``None`` with
no processor still running is a deadlock -- a real hardware hang, which
for the SBM would mean the compile-time queue order disagreed with the
run-time arrival order.

Per-PE state exists only for the program's live PEs
(:attr:`~repro.machine.program.MachineProgram.live_pes`).  The idle PEs,
whose stream is the start wait alone, are one class: they block on the
start barrier ``b0`` at clock 0, stay in ``waiting``/``arrival`` at their
dense-start positions while they do, and retire together at ``b0``'s
(possibly jittered) fire time.  ``b0`` still fires through the
controller, so fault jitter draws and observability output are those of
a PE-by-PE run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from operator import eq
from typing import Iterable, Protocol, Sequence

from repro.machine.durations import DurationSampler, UniformSampler
from repro.machine.program import BarrierRef, MachineOp, MachineProgram
from repro.machine.trace import DeadlockError, ExecutionTrace, GuardStall, GuardWait
from repro.obs.metrics import current_registry
from repro.obs.spans import current_tracer
from repro.perf.timers import stage

__all__ = [
    "BarrierController",
    "GuardPolicy",
    "participant_arrivals",
    "run_machine",
]


class BarrierController(Protocol):
    """Machine-specific firing rule (SBM FIFO or DBM associative)."""

    def select(
        self,
        waiting: dict[int, int],
        arrival: dict[int, int],
    ) -> tuple[int, int] | None:
        """``waiting[pe] = barrier_id`` for blocked processors and
        ``arrival[pe]`` their arrival times; return
        ``(barrier_id, fire_time)`` or ``None``."""
        ...


def participant_arrivals(
    program: MachineProgram,
    barrier_id: int,
    waiting: dict[int, int],
    arrival: dict[int, int],
) -> Iterable[int] | None:
    """Arrival times of ``barrier_id``'s participants when every one
    waits on it, else ``None``: the hardware's subset test.

    A flat check over the program's cached participant sequence, mapped
    in C with no Python-level call per PE.  A full mask (the start
    barrier) spans every PE, so it is ready exactly when all ``n_pes``
    values of ``waiting`` name it, and ``arrival`` then holds one entry
    per participant.
    """
    pes = program.participants(barrier_id)
    if isinstance(pes, range):
        if list(waiting.values()).count(barrier_id) != len(pes):
            return None
        return arrival.values()
    if not all(map(eq, map(waiting.get, pes), repeat(barrier_id))):
        return None
    return map(arrival.__getitem__, pes)


@dataclass(frozen=True, slots=True)
class GuardPolicy:
    """Watchdog parameters for dynamic data guards (hybrid programs).

    A blocked consumer re-checks its producers every ``poll`` time units
    (bounded retry: the recorded ``GuardWait.polls`` counts the retries),
    so the resume time is quantized to poll ticks past the arrival.  A
    wait that would exceed ``timeout`` raises :class:`GuardStall`
    instead of spinning forever -- the race is *reported*, not silent.
    """

    poll: int = 1
    timeout: int = 4096

    def __post_init__(self) -> None:
        if self.poll < 1:
            raise ValueError("guard poll interval must be >= 1")
        if self.timeout < self.poll:
            raise ValueError("guard timeout must be >= poll interval")


@dataclass
class _PEState:
    pc: int = 0
    clock: int = 0
    waiting: int | None = None  # barrier id
    done: bool = False
    #: Guarded consumer this PE is blocked on (producers not finished).
    guarded: object | None = None  # NodeId


def run_machine(
    program: MachineProgram,
    controller: BarrierController,
    machine_name: str,
    sampler: DurationSampler | None = None,
    rng: random.Random | int | None = None,
    allow_overrun: bool = False,
    guard_policy: GuardPolicy | None = None,
) -> ExecutionTrace:
    """Execute ``program`` under ``controller``; return the full trace.

    By default a sampled duration outside an instruction's static
    ``[min,max]`` interval is a programming error and raises
    ``ValueError`` -- the compiler's entire soundness story rests on the
    interval being respected.  Fault-injection campaigns
    (:mod:`repro.faults`) deliberately violate the model: with
    ``allow_overrun=True`` the excursion is executed anyway and recorded
    in ``ExecutionTrace.overruns`` so the race detector can correlate
    observed order violations with the injected faults.

    Hybrid programs additionally carry ``program.guards``: demoted
    data edges the engine resolves dynamically by holding the consumer
    until its producers have finished, under the ``guard_policy``
    watchdog (default :class:`GuardPolicy`; a ``guard_policy``
    attribute on ``controller`` is honored when the argument is
    omitted).  Every resolved wait is recorded in
    ``ExecutionTrace.guard_waits``.
    """
    with stage("simulate"):
        return _run_machine(
            program, controller, machine_name, sampler, rng, allow_overrun,
            guard_policy,
        )


def _not_waiting(machine_name: str, barrier_id: int, pe: int) -> DeadlockError:
    return DeadlockError(
        f"{machine_name}: barrier b{barrier_id} fired but PE {pe} "
        f"is not waiting on it"
    )


def _fault_context(sampler, controller) -> str:
    """Active fault-plan summary, when either party knows one."""
    for source in (sampler, controller):
        context = getattr(source, "fault_context", "")
        if context:
            return str(context)
    return ""


def _run_machine(
    program: MachineProgram,
    controller: BarrierController,
    machine_name: str,
    sampler: DurationSampler | None,
    rng: random.Random | int | None,
    allow_overrun: bool,
    guard_policy: GuardPolicy | None = None,
) -> ExecutionTrace:
    sampler = sampler or UniformSampler()
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng)
    # Clock-aware samplers (windowed spikes) see the instruction's start
    # time; plain samplers keep the original position-free interface.
    sample_at = getattr(sampler, "sample_at", None)

    guards = program.guards
    policy = guard_policy or getattr(controller, "guard_policy", None)
    if guards and policy is None:
        policy = GuardPolicy()

    n_pes = program.n_pes
    b0 = program.initial_barrier_id
    live: Sequence[int] = program.live_pes
    n_idle = n_pes - len(live)
    if n_idle and not program.masks[b0].is_full:
        # The idle class retires with b0, so b0 must span every PE;
        # otherwise run every PE individually.
        live, n_idle = range(n_pes), 0
    states = {pe: _PEState() for pe in live}
    start: dict = {}
    finish: dict = {}
    durations: dict = {}
    overruns: dict = {}
    barrier_fire: dict[int, int] = {}
    guard_waits: list[GuardWait] = []
    resolved_guards: set = set()
    # Blocked-PE bookkeeping is maintained incrementally (entries added
    # when ``advance`` blocks a PE, popped at release) so one loop
    # iteration costs O(participants), not O(n_pes) -- the difference
    # between linear and quadratic simulation at 1024 PEs.  With idle
    # PEs both dicts start as the dense start (every PE at b0, clock 0,
    # in PE order); live PEs then overwrite their entries in place.
    if n_idle:
        waiting: dict[int, int] = dict.fromkeys(range(n_pes), b0)
        arrival: dict[int, int] = dict.fromkeys(range(n_pes), 0)
    else:
        waiting, arrival = {}, {}
    idle_blocked = n_idle > 0
    idle_clock = 0
    done_count = 0

    def resolve_guard(st: _PEState, node) -> None:
        """All producers of ``node`` finished: charge the wait (if any),
        quantized into watchdog poll ticks, and release the consumer."""
        producers = guards[node]
        ready = max(finish[p] for p in producers)
        arrival = st.clock
        if ready > arrival:
            polls = -(-(ready - arrival) // policy.poll)  # ceil division
            resumed = arrival + polls * policy.poll
            if resumed - arrival > policy.timeout:
                raise GuardStall(
                    node,
                    producers,
                    resumed - arrival,
                    policy.timeout,
                    _fault_context(sampler, controller) or None,
                )
        else:
            polls = 0
            resumed = arrival
        guard_waits.append(GuardWait(node, producers, arrival, resumed, polls))
        st.clock = resumed
        resolved_guards.add(node)

    def advance(pe: int) -> None:
        """Run processor ``pe`` until it blocks or retires."""
        nonlocal done_count
        st = states[pe]
        stream = program.streams[pe]
        while st.pc < len(stream):
            item = stream[st.pc]
            if isinstance(item, BarrierRef):
                st.waiting = item.barrier_id
                waiting[pe] = item.barrier_id
                arrival[pe] = st.clock
                st.pc += 1
                return
            assert isinstance(item, MachineOp)
            if guards and item.node in guards and item.node not in resolved_guards:
                if all(p in finish for p in guards[item.node]):
                    resolve_guard(st, item.node)
                else:
                    # Producer finish times unknown yet: block here and
                    # let the main loop retry once more work retires.
                    st.guarded = item.node
                    return
            if sample_at is not None:
                dur = sample_at(item.node, item.latency, rng, st.clock)
            else:
                dur = sampler.sample(item.node, item.latency, rng)
            if dur not in item.latency:
                if not allow_overrun:
                    raise ValueError(
                        f"sampler produced {dur} outside {item.latency} for {item.node!r}"
                    )
                excess = (
                    dur - item.latency.hi
                    if dur > item.latency.hi
                    else dur - item.latency.lo
                )
                overruns[item.node] = excess
            start[item.node] = st.clock
            st.clock += dur
            finish[item.node] = st.clock
            durations[item.node] = dur
            st.pc += 1
        st.done = True
        done_count += 1

    def settle_guards() -> bool:
        """Release guard-blocked PEs whose producers have now finished;
        repeat to a fixpoint (a release can retire another's producer)."""
        progressed = False
        changed = True
        while changed:
            changed = False
            for pe, st in states.items():
                node = st.guarded
                if node is not None and all(p in finish for p in guards[node]):
                    st.guarded = None
                    advance(pe)
                    changed = progressed = True
        return progressed

    for pe in live:
        advance(pe)
        if n_idle and states[pe].waiting is None:
            del waiting[pe], arrival[pe]  # retired or guard-blocked
    if guards:
        settle_guards()

    # One lookup each per run, not per release: the loop below is the
    # simulator's hot path.
    reg = current_registry()
    tracer = current_tracer()

    while done_count < n_pes:
        choice = controller.select(waiting, arrival)
        if choice is None:
            if guards and settle_guards():
                continue
            stuck = {pe: f"b{bid}" for pe, bid in waiting.items()}
            message = f"{machine_name}: no barrier can fire; waiting: {stuck}"
            # Name the pending barrier when the controller knows one
            # (the SBM's queue head) and which of its participants
            # never arrived -- the only clue to a real hardware hang.
            pending = getattr(controller, "pending", None)
            pending_id = pending() if callable(pending) else None
            if pending_id is not None:
                mask = program.masks.get(pending_id)
                absent = sorted(
                    pe for pe in (mask or ()) if waiting.get(pe) != pending_id
                )
                message += (
                    f"; pending barrier b{pending_id} still needs "
                    f"PEs {absent}"
                )
            stalled = {
                pe: str(st.guarded)
                for pe, st in states.items()
                if st.guarded is not None
            }
            if stalled:
                message += f"; guard-blocked: {stalled}"
            context = _fault_context(sampler, controller)
            if context:
                message += f"; under faults: {context}"
            raise DeadlockError(message)
        barrier_id, fire_time = choice
        if barrier_id != b0:
            fire_time += program.barrier_latency
        barrier_fire[barrier_id] = fire_time
        if reg is not None:
            reg.inc("engine.barrier_releases")
            reg.observe("engine.release_waiting", len(waiting))
        if tracer is not None:
            tracer.instant(
                "engine.release",
                {
                    "machine": machine_name,
                    "barrier": barrier_id,
                    "fire_time": fire_time,
                    "waiting": len(waiting),
                },
            )
        if (
            barrier_id == b0
            and idle_blocked
            and all(st.waiting == b0 for st in states.values())
        ):
            # Every PE waits on b0, which spans them all: release in bulk.
            # Live PEs resume in PE order, so sampler draws and re-blocked
            # waiting entries come in the order a PE-by-PE release produces.
            idle_blocked = False
            idle_clock = fire_time
            done_count += n_idle
            waiting.clear()
            arrival.clear()
            for pe, st in states.items():
                st.clock = fire_time
                st.waiting = None
                advance(pe)
        else:
            for pe in program.participants(barrier_id):
                st = states.get(pe)
                if st is None:  # idle: leaves b0 only in the bulk release
                    if barrier_id == b0 and idle_blocked:
                        continue  # some live PE is not waiting: it raises
                    raise _not_waiting(machine_name, barrier_id, pe)
                if st.waiting != barrier_id:
                    raise _not_waiting(machine_name, barrier_id, pe)
                # Exact-synchrony release: every participant resumes at fire_time.
                st.clock = fire_time
                st.waiting = None
                waiting.pop(pe, None)
                arrival.pop(pe, None)
                advance(pe)

    pe_finish = [idle_clock] * n_pes
    for pe, st in states.items():
        pe_finish[pe] = st.clock
    return ExecutionTrace(
        machine=machine_name,
        start=start,
        finish=finish,
        barrier_fire=barrier_fire,
        pe_finish=tuple(pe_finish),
        durations=durations,
        overruns=overruns,
        guard_waits=tuple(guard_waits),
    )
