"""Pinned execution traces of 1024-PE machine programs.

A 1024-PE block keeps about a dozen PEs busy; every other stream is the
bare start wait ``b0``.  The digests below were captured before the
machine layer lowered only the active streams and ran the idle PEs as
one class.  Each covers the loader image (``program_to_json``) and every
:class:`~repro.machine.trace.ExecutionTrace` field in insertion order,
so a drift in lowering, RNG draw order, barrier fire order, jitter or
dict order changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.faults import FaultPlan, campaign_digest, run_campaign
from repro.faults.campaign import straggler_nodes
from repro.faults.model import FaultyController, FaultySampler
from repro.hybrid.controller import HybridController
from repro.io import program_to_json
from repro.machine.dbm import simulate_dbm
from repro.machine.durations import MaxSampler, MinSampler, UniformSampler
from repro.machine.engine import run_machine
from repro.machine.program import MachineProgram
from repro.machine.sbm import simulate_sbm
from repro.machine.trace import DeadlockError, ExecutionTrace, GuardStall
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

WIDE = 1024


def trace_record(trace: ExecutionTrace) -> dict:
    """Every trace field, dicts as ordered item lists."""

    def items(mapping):
        return [[repr(k), v] for k, v in mapping.items()]

    return {
        "machine": trace.machine,
        "start": items(trace.start),
        "finish": items(trace.finish),
        "barrier_fire": items(trace.barrier_fire),
        "pe_finish": list(trace.pe_finish),
        "durations": items(trace.durations),
        "overruns": items(trace.overruns),
        "guard_waits": [
            [repr(w.consumer), [repr(p) for p in w.producers],
             w.arrival, w.resumed, w.polls]
            for w in trace.guard_waits
        ],
    }


def outcome_digest(program: MachineProgram, records: list[dict]) -> str:
    """sha256 over the loader image plus one JSON record per run."""
    h = hashlib.sha256()
    h.update(json.dumps(program_to_json(program), sort_keys=True).encode())
    for record in records:
        h.update(json.dumps(record).encode())
    return h.hexdigest()


def wide_program(seed: int, **overrides) -> MachineProgram:
    case = compile_case(GeneratorConfig(n_statements=40, n_variables=8), seed)
    config = SchedulerConfig(n_pes=WIDE, seed=seed, **overrides)
    return MachineProgram.from_schedule(schedule_dag(case.dag, config).schedule)


def sampled_runs(program: MachineProgram, simulate) -> list[dict]:
    return [
        trace_record(simulate(program, UniformSampler(), 0)),
        trace_record(simulate(program, UniformSampler(), 1)),
        trace_record(simulate(program, MaxSampler())),
        trace_record(simulate(program, MinSampler())),
    ]


def static_digest(overrides: dict, simulators) -> str:
    h = hashlib.sha256()
    for seed in range(6):
        program = wide_program(seed, **overrides)
        for simulate in simulators:
            h.update(outcome_digest(program, sampled_runs(program, simulate)).encode())
    return h.hexdigest()


def hybrid_fault_digest() -> str:
    """A hybrid program with five demoted edges, run under overruns and
    barrier jitter: guards wait, recover races and jitter every release."""
    case = compile_case(GeneratorConfig(n_statements=40, n_variables=8), 7)
    config = SchedulerConfig(n_pes=WIDE, seed=7, mode="hybrid", hybrid_epsilon=0.5)
    result = schedule_dag(case.dag, config)
    assert result.hybrid is not None and result.hybrid.n_demoted == 5
    program = MachineProgram.from_schedule(
        result.schedule, guards=result.hybrid.guards
    )
    plan = FaultPlan(epsilon=1.5, barrier_jitter=2)
    slow = straggler_nodes(result.schedule, plan)
    records: list[dict] = []
    saves = 0
    for run in range(6):
        rng = random.Random(run)
        inner = HybridController.for_program(
            program, "sbm", fault_context=plan.describe()
        )
        controller = FaultyController(inner, plan, rng)
        sampler = FaultySampler(plan, UniformSampler(), slow)
        try:
            trace = run_machine(
                program, controller, "sbm", sampler, rng, allow_overrun=True
            )
        except (DeadlockError, GuardStall) as exc:
            records.append({"error": type(exc).__name__, "message": str(exc)})
        else:
            records.append(trace_record(trace))
            saves += trace.guard_saves
        records.append({"jitter": list(controller.jitter.items())})
    assert saves > 0
    return outcome_digest(program, records)


#: name -> (digest function, digest); the static points are six cases
#: of 40 statements each, run under two uniform draws, max and min.
TRACE_PINS: dict[str, tuple] = {
    "sbm_list": (
        lambda: static_digest({}, (simulate_sbm,)),
        "1753b8418e9418508a8355c936374b3c6670675d712badb1b928f4068917a4d5",
    ),
    "dbm_optimal": (
        lambda: static_digest(
            {"machine": "dbm", "insertion": "optimal"}, (simulate_dbm,)
        ),
        "1d81bb4080c57dd1e46d52133a1dca15d552b84a840955321c60c717235f6692",
    ),
    "latency2": (
        lambda: static_digest(
            {"barrier_latency": 2}, (simulate_sbm, simulate_dbm)
        ),
        "3b69861e42766d095efe0a4f644e166506d87898a96964dbcece057b87d2f933",
    ),
    "hybrid_faults": (
        hybrid_fault_digest,
        "36abbe4bf6f7629f1e93f68632a2fe6f8dc10d679972671a6b26e8b52d20d595",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_wide_trace_pinned(name):
    compute, expected = TRACE_PINS[name]
    assert compute() == expected


def jitter_campaign():
    case = compile_case(GeneratorConfig(n_statements=30), 7)
    schedule = schedule_dag(case.dag, SchedulerConfig(n_pes=256, seed=7)).schedule
    return run_campaign(schedule, "sbm", FaultPlan(barrier_jitter=3), runs=20, seed=7)


#: campaign_digest of :func:`jitter_campaign`.
JITTER_CAMPAIGN_PIN = (
    "db2963961b19c2b4e3ce931aba755d0a84584ebedcf83e9c85bd7966e46892b5"
)


def test_barrier_jitter_campaign_pinned():
    assert campaign_digest(jitter_campaign()) == JITTER_CAMPAIGN_PIN
