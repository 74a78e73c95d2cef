"""Property-based system tests (hypothesis).

The single most important invariant of the whole reproduction:

    For EVERY basic block, EVERY machine configuration and EVERY
    realization of the variable instruction times, executing the
    scheduler's output on the barrier machine preserves all
    producer/consumer dependences.

Hypothesis drives random generator configurations, machine shapes, and
duration realizations; random *arbitrary* DAGs (not only compiler-shaped
ones) are exercised as well.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.timing import Interval
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.core.validate import find_violations
from repro.ir.dag import InstructionDAG
from repro.machine.durations import MaxSampler, MinSampler, UniformSampler
from repro.machine.program import MachineProgram
from repro.machine.dbm import simulate_dbm
from repro.machine.sbm import simulate_sbm
from repro.metrics.fractions import fractions_of
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

_SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- strategy: arbitrary weighted DAGs ------------------------------------

@st.composite
def arbitrary_dags(draw) -> InstructionDAG:
    n = draw(st.integers(min_value=1, max_value=18))
    latencies = {}
    for k in range(n):
        lo = draw(st.integers(min_value=1, max_value=12))
        width = draw(st.integers(min_value=0, max_value=12))
        latencies[k] = Interval(lo, lo + width)
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()) and draw(st.integers(0, 2)) == 0:
                edges.append((i, j))
    return InstructionDAG.build(latencies, edges)


machine_configs = st.builds(
    SchedulerConfig,
    n_pes=st.integers(min_value=1, max_value=12),
    machine=st.sampled_from(["sbm", "dbm"]),
    insertion=st.sampled_from(["conservative", "optimal"]),
    assignment=st.sampled_from(["list", "roundrobin"]),
    lookahead=st.integers(min_value=0, max_value=3),
    serialization_slack=st.integers(min_value=0, max_value=4),
    barrier_latency=st.integers(min_value=0, max_value=2),
    merge_barriers=st.sampled_from([None, True, False]),
    seed=st.integers(min_value=0, max_value=2**16),
)


@_SLOW
@given(dag=arbitrary_dags(), config=machine_configs, sim_seed=st.integers(0, 999))
def test_scheduler_sound_on_arbitrary_dags(dag, config, sim_seed):
    result = schedule_dag(dag, config)
    assert find_violations(result.schedule, config.insertion) == []
    program = MachineProgram.from_schedule(result.schedule)
    simulate = simulate_sbm if config.machine == "sbm" else simulate_dbm
    for sampler in (MinSampler(), MaxSampler(), UniformSampler()):
        trace = simulate(program, sampler, rng=sim_seed)
        trace.assert_sound(program.edges)
        assert result.makespan.lo <= trace.makespan <= result.makespan.hi


@_SLOW
@given(
    seed=st.integers(0, 10_000),
    stmts=st.integers(2, 50),
    nvars=st.integers(2, 12),
    pes=st.integers(1, 16),
    machine=st.sampled_from(["sbm", "dbm"]),
)
def test_scheduler_sound_on_synthetic_benchmarks(seed, stmts, nvars, pes, machine):
    case = compile_case(GeneratorConfig(n_statements=stmts, n_variables=nvars), seed)
    config = SchedulerConfig(n_pes=pes, seed=seed, machine=machine)
    result = schedule_dag(case.dag, config)

    # bookkeeping invariants
    c = result.counts
    assert (
        c.serialized_edges + c.path_edges + c.timing_edges + c.barrier_edges
        == c.total_edges
    )
    fr = fractions_of(result)
    if c.total_edges:
        assert abs(fr.barrier + fr.serialized + fr.static - 1.0) < 1e-9

    # execution soundness at the extremes and one random draw
    program = MachineProgram.from_schedule(result.schedule)
    simulate = simulate_sbm if machine == "sbm" else simulate_dbm
    assert simulate(program, MinSampler()).makespan == result.makespan.lo
    assert simulate(program, MaxSampler()).makespan == result.makespan.hi
    simulate(program, UniformSampler(), rng=seed).assert_sound(program.edges)


@_SLOW
@given(dag=arbitrary_dags(), seed=st.integers(0, 2**16))
def test_barrier_dag_invariants_on_final_schedules(dag, seed):
    """Structural laws of the finished schedule's barrier dag."""
    result = schedule_dag(dag, SchedulerConfig(n_pes=4, seed=seed))
    sched = result.schedule
    bd = sched.barrier_dag()
    fire = bd.fire_times()
    # fire times are monotone along <_b edges
    for edge in bd.edges():
        assert fire[edge.dst].lo >= fire[edge.src].lo + edge.weight.lo
        assert fire[edge.dst].hi >= fire[edge.src].hi + edge.weight.hi
    # the dominator tree is rooted at b0 and each idom is an ancestor
    tree = sched.dominator_tree()
    for bid in bd.barrier_ids:
        if bid != tree.root:
            assert tree.dominates(tree.idom(bid), bid)
    # SBM invariant: no H-unordered pair of barriers overlaps in time
    if result.config.merging_enabled:
        barriers = sched.barriers()
        for a_idx, a in enumerate(barriers):
            for b in barriers[a_idx + 1:]:
                if not sched.hb_barrier_ordered(a.id, b.id):
                    assert not fire[a.id].overlaps(fire[b.id])


@_SLOW
@given(
    dag=arbitrary_dags(),
    seed=st.integers(0, 2**16),
    durations_seed=st.integers(0, 2**16),
)
def test_adversarial_duration_assignments(dag, seed, durations_seed):
    """Arbitrary per-instruction duration choices (not just the global
    corners) never break dependences."""
    result = schedule_dag(dag, SchedulerConfig(n_pes=3, seed=seed))
    program = MachineProgram.from_schedule(result.schedule)
    rng = random.Random(durations_seed)

    class EveryNodeRandom:
        def sample(self, node, latency, _rng):
            return rng.randint(latency.lo, latency.hi)

    simulate_sbm(program, EveryNodeRandom()).assert_sound(program.edges)
