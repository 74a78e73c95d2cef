"""E20: static vs ε-hardened vs hybrid under timing faults.

E19 measured the two extremes of the robustness trade: pure-static
scheduling (fast, races once slack runs out) and ε-hardening (race-free
by construction, pays extra barriers everywhere the inflated model
fails).  This experiment adds the middle road built in
:mod:`repro.hybrid`: keep the static skeleton, demote only the fragile
timing edges to dynamic data guards, and resolve those at runtime under
a timeout/bounded-retry watchdog.

For each fault level (ε sweep, then straggler counts at the highest ε),
every benchmark of a seeded corpus is campaigned three ways with the
*same* seeds:

* **static** -- the raw schedule: its survival rate is the baseline the
  hybrid must strictly dominate;
* **hardened** -- ε-hardened against the exact plan: survival is 1.0 by
  the soundness theorem, but the makespan overhead is the price floor
  hybrid must undercut;
* **hybrid** -- the same schedule with fragile edges guarded, budget set
  to the plan's worst-case stretch: races become recovered guard waits
  (``n_guard_saves``) or, past the watchdog, reported stalls.

Makespan overheads are *observed* (mean simulated makespan under the
plan, relative to the static schedule's own mean at the same level), so
the hybrid's pay-only-when-faulted property is visible: with few faults
its overhead hugs zero while hardening pays its barriers on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.faults import FaultPlan, harden_schedule, run_campaign
from repro.hybrid import hybridize_schedule
from repro.synth.generator import GeneratorConfig

__all__ = ["HybridPoint", "HybridResult", "hybrid_experiment"]

DEFAULT_EPSILONS = (0.0, 0.1, 0.25, 0.5)
DEFAULT_STRAGGLERS = (1, 2)


@dataclass(frozen=True)
class HybridPoint:
    """All three strategies at one fault level, aggregated over the corpus."""

    epsilon: float
    n_stragglers: int
    n_cases: int
    n_runs: int  # total campaign runs per strategy
    survival_static: float
    survival_hardened: float
    survival_hybrid: float
    #: Mean observed makespan overhead vs the static schedule's own mean
    #: at this fault level (0.0 == no price paid).
    overhead_hardened: float
    overhead_hybrid: float
    mean_extra_barriers: float
    mean_demotions: float
    guard_saves: int
    guard_stalls: int
    deadlocks: int

    @property
    def label(self) -> str:
        if self.n_stragglers:
            return f"{self.epsilon:g}+{self.n_stragglers}s"
        return f"{self.epsilon:g}"


@dataclass(frozen=True)
class HybridResult:
    """The static-vs-hardened-vs-hybrid robustness study (E20)."""

    machine: str
    n_pes: int
    runs_per_case: int
    points: tuple[HybridPoint, ...]

    def render(self) -> str:
        lines = [
            f"hybrid robustness study: {self.points[0].n_cases} benchmarks, "
            f"{self.n_pes} PEs {self.machine.upper()}, "
            f"{self.runs_per_case} random runs/case + directed witnesses",
            f"{'level':>8}  {'static':>7}  {'hardened':>8}  {'hybrid':>7}  "
            f"{'+mk hard':>8}  {'+mk hyb':>8}  {'+barr':>6}  {'demote':>6}  "
            f"{'saves':>6}  {'stalls':>6}",
        ]
        for p in self.points:
            lines.append(
                f"{p.label:>8}  {p.survival_static:7.1%}  "
                f"{p.survival_hardened:8.1%}  {p.survival_hybrid:7.1%}  "
                f"{p.overhead_hardened:8.1%}  {p.overhead_hybrid:8.1%}  "
                f"{p.mean_extra_barriers:6.2f}  {p.mean_demotions:6.2f}  "
                f"{p.guard_saves:6d}  {p.guard_stalls:6d}"
            )
        if any(p.deadlocks for p in self.points):
            lines.append(
                "deadlocks: "
                + ", ".join(
                    f"{p.label}: {p.deadlocks}" for p in self.points if p.deadlocks
                )
            )
        return "\n".join(lines)


def hybrid_experiment(
    count: int = 15,
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
    stragglers: tuple[int, ...] = DEFAULT_STRAGGLERS,
    machine: str = "sbm",
    runs: int = 15,
    n_statements: int = 30,
    n_pes: int = 4,
    master_seed: int = 0,
) -> HybridResult:
    """Sweep fault levels; campaign each schedule static, hardened, hybrid.

    The sweep runs every ε with no stragglers, then adds each straggler
    count at the highest ε (a straggler multiplies the per-instruction
    budget, so that corner is the hardest).  All three campaigns of a
    case share the same seeds, making the three survival rates directly
    comparable run-for-run.  The corpus follows ``REPRO_JOBS`` through
    :func:`~repro.experiments.sweeps.run_corpus`; the campaigns run
    in-process, because a pool per short campaign costs more to start
    than it saves.
    """
    results = run_corpus(
        ExperimentPoint(
            generator=GeneratorConfig(n_statements=n_statements),
            scheduler=SchedulerConfig(n_pes=n_pes, machine=machine),
            count=count,
            master_seed=master_seed,
        )
    )

    levels: list[tuple[float, int]] = [(eps, 0) for eps in epsilons]
    top = max(epsilons) if epsilons else 0.0
    if top > 0:
        levels.extend((top, s) for s in stragglers if s > 0)

    points = []
    for eps, n_strag in levels:
        plan = FaultPlan(
            epsilon=eps, straggler_pes=frozenset(range(min(n_strag, n_pes)))
        )
        merge = machine == "sbm"
        totals = {"static": 0, "hardened": 0, "hybrid": 0}
        survived = {"static": 0, "hardened": 0, "hybrid": 0}
        makespan = {"static": 0.0, "hardened": 0.0, "hybrid": 0.0}
        extra_barriers = 0
        demotions = 0
        saves = 0
        stalls = 0
        deadlocks = 0
        for result in results:
            schedule, seed = result.schedule, result.config.seed
            static = run_campaign(schedule, machine, plan, runs=runs, seed=seed)
            hard = harden_schedule(schedule, plan=plan, merge=merge)
            hardened = run_campaign(
                hard.schedule, machine, plan, runs=runs, seed=seed
            )
            hyb = hybridize_schedule(schedule, plan.worst_stretch)
            hybrid = run_campaign(
                schedule, machine, plan, runs=runs, seed=seed, hybrid=hyb
            )
            for name, rep in (
                ("static", static), ("hardened", hardened), ("hybrid", hybrid)
            ):
                totals[name] += rep.n_runs
                survived[name] += round(rep.survival_rate * rep.n_runs)
                makespan[name] += rep.mean_makespan
            extra_barriers += hard.extra_barriers
            demotions += hyb.n_demoted
            saves += hybrid.n_guard_saves
            stalls += hybrid.n_stalls
            deadlocks += static.n_deadlocks + hardened.n_deadlocks + hybrid.n_deadlocks

        def overhead(name: str) -> float:
            if makespan["static"] == 0:
                return 0.0
            return makespan[name] / makespan["static"] - 1.0

        points.append(
            HybridPoint(
                epsilon=eps,
                n_stragglers=n_strag,
                n_cases=len(results),
                n_runs=totals["static"],
                survival_static=survived["static"] / max(totals["static"], 1),
                survival_hardened=survived["hardened"] / max(totals["hardened"], 1),
                survival_hybrid=survived["hybrid"] / max(totals["hybrid"], 1),
                overhead_hardened=overhead("hardened"),
                overhead_hybrid=overhead("hybrid"),
                mean_extra_barriers=extra_barriers / len(results),
                mean_demotions=demotions / len(results),
                guard_saves=saves,
                guard_stalls=stalls,
                deadlocks=deadlocks,
            )
        )

    return HybridResult(
        machine=machine, n_pes=n_pes, runs_per_case=runs, points=tuple(points)
    )
