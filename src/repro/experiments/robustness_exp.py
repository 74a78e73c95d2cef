"""E19: the fault-tolerance curve -- how much overrun until schedules break.

The paper's soundness argument is all-or-nothing: *if* every instruction
respects its ``[min,max]`` interval, no run-time race is possible.  This
experiment measures what lies beyond the "if".  For each ε in a sweep,
every benchmark of a seeded corpus is scheduled normally, attacked by a
Monte-Carlo fault campaign (multiplicative overruns of up to ε per
instruction, random plus directed-witness runs), then ε-hardened and
attacked again with the *same* seeds.

Three curves fall out:

* the fraction of schedules with at least one observed race, rising
  with ε as timing-proof slack is consumed;
* the same fraction after hardening -- the soundness of
  :func:`~repro.faults.harden.harden_schedule` predicts identically
  zero at every ε, which the campaign verifies empirically;
* the price paid: mean extra barriers and worst-case makespan growth.

At ε = 0 the plan is null and both curves must be zero on both machines
-- that row doubles as a regression check of the whole simulator stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.faults import FaultPlan, harden_schedule, robustness_margin, run_campaign
from repro.metrics.robustness import (
    CaseRobustness,
    RobustnessPoint,
    aggregate_robustness,
)
from repro.synth.generator import GeneratorConfig

__all__ = ["RobustnessResult", "robustness_experiment"]

DEFAULT_EPSILONS = (0.0, 0.1, 0.25, 0.5)


@dataclass(frozen=True)
class RobustnessResult:
    """The fault-tolerance curve for one corpus and machine."""

    machine: str
    n_pes: int
    runs_per_case: int
    points: tuple[RobustnessPoint, ...]

    def render(self) -> str:
        lines = [
            f"fault-tolerance curve: {self.points[0].n_cases} benchmarks, "
            f"{self.n_pes} PEs {self.machine.upper()}, "
            f"{self.runs_per_case} random runs/case + directed witnesses",
            f"{'eps':>6}  {'racy':>7}  {'races':>7}  {'hardened-racy':>13}  "
            f"{'eps*>=eps':>9}  {'+barriers':>9}  {'makespan':>9}",
        ]
        for p in self.points:
            lines.append(
                f"{p.epsilon:6.2f}  {p.racy_fraction:7.1%}  {p.mean_races:7.2f}  "
                f"{p.racy_fraction_hardened:13.1%}  {p.covered_fraction:9.1%}  "
                f"{p.mean_extra_barriers:9.2f}  {p.mean_makespan_overhead:8.1%}+"
            )
        if any(p.n_deadlocks for p in self.points):
            lines.append(
                "deadlocks: "
                + ", ".join(
                    f"eps={p.epsilon:g}: {p.n_deadlocks}"
                    for p in self.points
                    if p.n_deadlocks
                )
            )
        return "\n".join(lines)


def robustness_experiment(
    count: int = 25,
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
    machine: str = "sbm",
    runs: int = 20,
    n_statements: int = 30,
    n_pes: int = 4,
    master_seed: int = 0,
) -> RobustnessResult:
    """Sweep ε over a seeded corpus; campaign each schedule raw and hardened.

    Small blocks on few processors are deliberately chosen: they maximize
    the share of timing-proved (statically discharged) edges, which are
    the only edges fault injection can break.
    """
    results = run_corpus(
        ExperimentPoint(
            generator=GeneratorConfig(n_statements=n_statements),
            scheduler=SchedulerConfig(n_pes=n_pes, machine=machine),
            count=count,
            master_seed=master_seed,
        )
    )

    points = []
    for eps in epsilons:
        plan = FaultPlan(epsilon=eps)
        batch = []
        for result in results:
            schedule, seed = result.schedule, result.config.seed
            margin = robustness_margin(schedule)
            before = run_campaign(
                schedule, machine, plan, runs=runs, seed=seed
            )
            hard = harden_schedule(schedule, plan=plan, merge=machine == "sbm")
            after = run_campaign(
                hard.schedule, machine, plan, runs=runs, seed=seed
            )
            batch.append(
                CaseRobustness(
                    epsilon=eps,
                    n_timing_edges=margin.n_timing,
                    epsilon_star=margin.epsilon_star,
                    races_unhardened=len(before.blames),
                    races_hardened=len(after.blames),
                    extra_barriers=hard.extra_barriers,
                    makespan_overhead=hard.makespan_overhead,
                    deadlocks=before.n_deadlocks + after.n_deadlocks,
                )
            )
        points.append(aggregate_robustness(batch))

    return RobustnessResult(
        machine=machine, n_pes=n_pes, runs_per_case=runs, points=tuple(points)
    )
