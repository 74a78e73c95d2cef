"""Table-style experiments: instruction mix, headline ranges, merging,
and the section 5.4 heuristic ablations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.scheduler import SchedulerConfig
from repro.experiments.render import table
from repro.experiments.sweeps import ExperimentPoint, run_corpus, run_point
from repro.ir.ops import ALU_OPCODES, DEFAULT_TIMING, OP_FREQUENCIES, Opcode
from repro.ir.codegen import generate_tuples
from repro.machine.dbm import simulate_dbm
from repro.machine.program import MachineProgram
from repro.machine.sbm import simulate_sbm
from repro.metrics.fractions import fractions_of
from repro.metrics.stats import CorpusStats
from repro.synth.generator import GeneratorConfig, generate_block

__all__ = [
    "barrier_cost_experiment",
    "table1_instruction_mix",
    "overall_ranges",
    "merging_experiment",
    "ablation_round_robin",
    "ablation_ordering",
    "ablation_lookahead",
    "ablation_timing_variation",
    "secondary_effect",
    "optimal_vs_conservative",
]


# ---------------------------------------------------------------------------
# E1: Table 1 -- instruction mix and latency table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstructionMixResult:
    observed: dict[Opcode, float]  # fraction of ALU tuples per opcode
    expected: dict[Opcode, float]
    max_abs_deviation: float

    def render(self) -> str:
        rows = []
        for op in ALU_OPCODES:
            iv = DEFAULT_TIMING[op]
            rows.append(
                [
                    str(op),
                    f"{self.expected[op]:.1%}",
                    f"{self.observed[op]:.1%}",
                    iv.lo,
                    iv.hi,
                ]
            )
        for op in (Opcode.LOAD, Opcode.STORE):
            iv = DEFAULT_TIMING[op]
            rows.append([str(op), "-", "-", iv.lo, iv.hi])
        return (
            "Table 1: instruction frequencies and execution time ranges\n"
            + table(["instr", "expected", "observed", "min t", "max t"], rows)
            + f"\nmax |observed - expected| = {self.max_abs_deviation:.2%}"
        )


def table1_instruction_mix(
    n_blocks: int = 200, master_seed: int = 1
) -> InstructionMixResult:
    """Check generated (pre-optimization) code matches the Table 1 mix."""
    counts = {op: 0 for op in ALU_OPCODES}
    rng = random.Random(master_seed)
    gen = GeneratorConfig(n_statements=50, n_variables=10)
    for _ in range(n_blocks):
        block = generate_block(gen, random.Random(rng.getrandbits(48)))
        program = generate_tuples(block)
        for tup in program:
            if tup.opcode in counts:
                counts[tup.opcode] += 1
    total = sum(counts.values())
    observed = {op: counts[op] / total for op in ALU_OPCODES}
    expected = {op: OP_FREQUENCIES[op] / 100.0 for op in ALU_OPCODES}
    deviation = max(abs(observed[op] - expected[op]) for op in ALU_OPCODES)
    return InstructionMixResult(observed, expected, deviation)


# ---------------------------------------------------------------------------
# E7: overall ranges across the whole corpus (section 5 bullet list)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverallRangesResult:
    n_benchmarks: int
    barrier_range: tuple[float, float]
    serialized_range: tuple[float, float]
    static_range: tuple[float, float]
    mean_no_runtime: float

    def render(self) -> str:
        rows = [
            ["barrier", f"{self.barrier_range[0]:.0%}", f"{self.barrier_range[1]:.0%}", "3%..23%"],
            ["serialized", f"{self.serialized_range[0]:.0%}", f"{self.serialized_range[1]:.0%}", "50%..90%"],
            ["static", f"{self.static_range[0]:.0%}", f"{self.static_range[1]:.0%}", "8%..40%"],
        ]
        return (
            f"Overall ranges over {self.n_benchmarks} benchmarks "
            "(per-point corpus means)\n"
            + table(["fraction", "min", "max", "paper"], rows)
            + f"\nmean serialized+static (no runtime sync): {self.mean_no_runtime:.1%}"
            "  (paper: >77%, center of mass ~85%)"
        )


def overall_ranges(
    count_per_point: int = 25, master_seed: int = 7
) -> OverallRangesResult:
    """Scheduling fractions across the full parameter grid (section 5).

    The grid spans the paper's parameter space (statements 5..60+,
    variables 2..15, PEs 2..128); ranges are over per-point means, as the
    paper's bullets summarize curve extremes.
    """
    grid: list[ExperimentPoint] = []
    for stmts in (5, 20, 40, 60, 80, 100):
        for nvars in (2, 5, 10, 15):
            for pes in (2, 8, 32, 128):
                grid.append(
                    ExperimentPoint(
                        generator=GeneratorConfig(n_statements=stmts, n_variables=nvars),
                        scheduler=SchedulerConfig(n_pes=pes),
                        count=count_per_point,
                        master_seed=master_seed + stmts * 1000 + nvars * 10 + pes,
                    )
                )
    stats = [run_point(p) for p in grid]
    barrier = [s.barrier.mean for s in stats]
    serialized = [s.serialized.mean for s in stats]
    static = [s.static.mean for s in stats]
    no_rt = [s.no_runtime_sync.mean for s in stats]
    n = sum(s.n_benchmarks for s in stats)
    return OverallRangesResult(
        n_benchmarks=n,
        barrier_range=(min(barrier), max(barrier)),
        serialized_range=(min(serialized), max(serialized)),
        static_range=(min(static), max(static)),
        mean_no_runtime=float(np.mean(no_rt)),
    )


# ---------------------------------------------------------------------------
# E8: barrier merging (section 4.4.3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergingResult:
    mean_barriers_merged: float
    mean_barriers_unmerged: float
    reduction: float
    static_merged: float
    static_unmerged: float
    sbm_mean_completion: float
    dbm_mean_completion: float

    def render(self) -> str:
        rows = [
            ["barriers/schedule", f"{self.mean_barriers_unmerged:.2f}", f"{self.mean_barriers_merged:.2f}"],
            ["static fraction", f"{self.static_unmerged:.1%}", f"{self.static_merged:.1%}"],
        ]
        return (
            "Barrier merging (10 variables, 80 statements; section 4.4.3)\n"
            + table(["metric", "no merging", "merging"], rows)
            + f"\nbarrier reduction: {self.reduction:.1%}  (paper: ~35% fewer)"
            + f"\nsimulated mean completion: SBM {self.sbm_mean_completion:.1f}"
            + f" vs DBM {self.dbm_mean_completion:.1f}"
            + "  (paper: SBM slightly longer, quite close)"
        )


def merging_experiment(
    count: int = 50, master_seed: int = 8, n_pes: int = 8, n_runs: int = 5
) -> MergingResult:
    """Merged vs unmerged barrier counts at the paper's 10-vars/80-stmts
    point, plus simulated SBM-vs-DBM completion times."""
    point = ExperimentPoint(
        generator=GeneratorConfig(n_statements=80, n_variables=10),
        count=count,
        master_seed=master_seed,
    )
    sbm = SchedulerConfig(n_pes=n_pes, machine="sbm")
    dbm = SchedulerConfig(n_pes=n_pes, machine="dbm", merge_barriers=False)
    merged_barriers, unmerged_barriers = [], []
    static_merged, static_unmerged = [], []
    sbm_times, dbm_times = [], []
    for merged, unmerged in zip(
        run_corpus(point.with_(scheduler=sbm)),
        run_corpus(point.with_(scheduler=dbm)),
    ):
        merged_barriers.append(merged.counts.barriers_final)
        unmerged_barriers.append(unmerged.counts.barriers_final)
        static_merged.append(fractions_of(merged).static)
        static_unmerged.append(fractions_of(unmerged).static)

        sbm_prog = MachineProgram.from_schedule(merged.schedule)
        dbm_prog = MachineProgram.from_schedule(unmerged.schedule)
        for run in range(n_runs):
            sbm_times.append(simulate_sbm(sbm_prog, rng=run).makespan)
            dbm_times.append(simulate_dbm(dbm_prog, rng=run).makespan)

    mean_merged = float(np.mean(merged_barriers))
    mean_unmerged = float(np.mean(unmerged_barriers))
    return MergingResult(
        mean_barriers_merged=mean_merged,
        mean_barriers_unmerged=mean_unmerged,
        reduction=1.0 - mean_merged / mean_unmerged if mean_unmerged else 0.0,
        static_merged=float(np.mean(static_merged)),
        static_unmerged=float(np.mean(static_unmerged)),
        sbm_mean_completion=float(np.mean(sbm_times)),
        dbm_mean_completion=float(np.mean(dbm_times)),
    )


# ---------------------------------------------------------------------------
# E9-E12: section 5.4 heuristic ablations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationResult:
    title: str
    axis_label: str
    x_values: tuple[object, ...]
    baseline: tuple[CorpusStats, ...]
    variant: tuple[CorpusStats, ...]
    baseline_name: str = "baseline"
    variant_name: str = "variant"
    notes: tuple[str, ...] = ()

    def render(self) -> str:
        rows = []
        for x, b, v in zip(self.x_values, self.baseline, self.variant):
            rows.append(
                [
                    x,
                    f"{b.barrier.mean:.1%}",
                    f"{v.barrier.mean:.1%}",
                    f"{b.serialized.mean:.1%}",
                    f"{v.serialized.mean:.1%}",
                    f"{b.mean_makespan_max:.1f}",
                    f"{v.mean_makespan_max:.1f}",
                ]
            )
        head = [
            self.axis_label,
            f"bar({self.baseline_name})",
            f"bar({self.variant_name})",
            f"ser({self.baseline_name})",
            f"ser({self.variant_name})",
            f"Tmax({self.baseline_name})",
            f"Tmax({self.variant_name})",
        ]
        out = f"{self.title}\n" + table(head, rows)
        if self.notes:
            out += "\n" + "\n".join(self.notes)
        return out


def _paired_ablation(
    title: str,
    axis: str,
    axis_label: str,
    values: Sequence[object],
    base: ExperimentPoint,
    variant_changes: dict,
    baseline_name: str,
    variant_name: str,
    notes: tuple[str, ...] = (),
) -> AblationResult:
    from repro.experiments.sweeps import _set_axis

    baseline_stats, variant_stats = [], []
    for v in values:
        point = _set_axis(base, axis, v)
        baseline_stats.append(run_point(point))
        variant_point = point.with_(
            scheduler=point.scheduler.with_(**variant_changes)
        )
        variant_stats.append(run_point(variant_point))
    return AblationResult(
        title=title,
        axis_label=axis_label,
        x_values=tuple(values),
        baseline=tuple(baseline_stats),
        variant=tuple(variant_stats),
        baseline_name=baseline_name,
        variant_name=variant_name,
        notes=notes,
    )


def ablation_round_robin(
    count: int = 50,
    master_seed: int = 9,
    values: Sequence[int] = (2, 4, 8, 16, 32),
) -> AblationResult:
    """List scheduling vs round-robin assignment (section 5.4)."""
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=60, n_variables=10),
        scheduler=SchedulerConfig(),
        count=count,
        master_seed=master_seed,
    )
    return _paired_ablation(
        "Round-robin ablation (60 stmts, 10 vars)",
        "scheduler.n_pes",
        "PEs",
        values,
        base,
        {"assignment": "roundrobin"},
        "list",
        "rrobin",
        notes=(
            "paper: serialization nearly vanishes for many PEs; barrier",
            "fraction rises sharply (toward 50%); both execution times grow,",
            "with the gap narrowing at large PE counts.",
        ),
    )


def ablation_ordering(
    count: int = 50,
    master_seed: int = 10,
    values: Sequence[int] = (4, 8, 16),
) -> AblationResult:
    """h_max-first vs h_min-first list ordering (section 5.4)."""
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=60, n_variables=10),
        scheduler=SchedulerConfig(),
        count=count,
        master_seed=master_seed,
    )
    result = _paired_ablation(
        "Ordering ablation: h_max-first vs h_min-first (60 stmts, 10 vars)",
        "scheduler.n_pes",
        "PEs",
        values,
        base,
        {"ordering": "minmax"},
        "maxmin",
        "minmax",
        notes=(
            "paper: the h_min-first ordering trades a slightly better best",
            "case for a slightly worse worst case; changes are quite small.",
        ),
    )
    return result


def ablation_lookahead(
    count: int = 50,
    master_seed: int = 11,
    values: Sequence[int] = (2, 4, 8, 16),
    window: int = 4,
) -> AblationResult:
    """Serialization lookahead window (section 5.4)."""
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=60, n_variables=10),
        scheduler=SchedulerConfig(),
        count=count,
        master_seed=master_seed,
    )
    return _paired_ablation(
        f"Lookahead ablation, window p={window} (60 stmts, 10 vars)",
        "scheduler.n_pes",
        "PEs",
        values,
        base,
        {"lookahead": window},
        "none",
        f"p={window}",
        notes=(
            "paper: serialization rises (modestly at many PEs); execution",
            "time +10..30% at few PEs from the longer serial chains, the",
            "increase disappearing at large PE counts.",
        ),
    )


@dataclass(frozen=True)
class TimingVariationResult:
    factors: tuple[float, ...]
    barrier_fraction: tuple[float, ...]
    static_fraction: tuple[float, ...]

    def render(self) -> str:
        rows = [
            [f"{f:g}x", f"{b:.1%}", f"{s:.1%}"]
            for f, b, s in zip(self.factors, self.barrier_fraction, self.static_fraction)
        ]
        return (
            "Timing-variation ablation (60 stmts, 10 vars, 8 PEs)\n"
            + table(["variation", "barrier", "static"], rows)
            + "\npaper: barrier fraction not very sensitive, only slightly"
            + "\nincreasing for large variations."
        )


def ablation_timing_variation(
    count: int = 50,
    master_seed: int = 12,
    factors: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0),
) -> TimingVariationResult:
    """Widen every instruction's timing variation by a factor (section 5.4)."""
    barrier, static = [], []
    for factor in factors:
        timing = DEFAULT_TIMING.scaled(factor)
        point = ExperimentPoint(
            generator=GeneratorConfig(n_statements=60, n_variables=10),
            scheduler=SchedulerConfig(n_pes=8),
            timing=timing,
            count=count,
            master_seed=master_seed,
        )
        stats = run_point(point)
        barrier.append(stats.barrier.mean)
        static.append(stats.static.mean)
    return TimingVariationResult(tuple(factors), tuple(barrier), tuple(static))


# ---------------------------------------------------------------------------
# E13: the figure 7/8 secondary effect (~28%)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondaryEffectResult:
    """Two operationalizations of the figure 7/8 effect.

    *timing-only* counts cross-processor edges discharged by a **timing**
    proof that leaned on a previously inserted barrier (a non-initial
    common dominator) -- the mechanism figures 7/8 describe, and the one
    that lands on the paper's ~28%.  *broad* additionally counts PathFind
    hits (pure barrier-chain transitivity).
    """

    timing_only_fraction: float
    broad_fraction: float
    n_timing_secondary: int
    n_path: int
    n_barrier_edges: int

    def render(self) -> str:
        return (
            "Secondary effect (section 3, figures 7/8)\n"
            f"timing proofs leaning on an earlier barrier: "
            f"{self.n_timing_secondary}; PathFind hits: {self.n_path}; "
            f"barrier insertions: {self.n_barrier_edges}\n"
            f"timing-only avoidance: {self.timing_only_fraction:.1%}"
            "  (paper: ~28%)\n"
            f"broad avoidance (incl. PathFind): {self.broad_fraction:.1%}"
        )


def secondary_effect(
    count: int = 100, master_seed: int = 13
) -> SecondaryEffectResult:
    """How often an inserted barrier lets later producer/consumer pairs
    resolve statically instead of inserting another barrier."""
    from repro.core.barrier_insert import ResolutionKind

    point = ExperimentPoint(
        generator=GeneratorConfig(n_statements=60, n_variables=10),
        scheduler=SchedulerConfig(n_pes=8),
        count=count,
        master_seed=master_seed,
    )
    results = run_corpus(point)
    n_path = n_timing_sec = n_barrier = 0
    for result in results:
        for res in result.resolutions:
            if res.kind is ResolutionKind.PATH:
                n_path += 1
            elif res.kind is ResolutionKind.TIMING and res.secondary:
                n_timing_sec += 1
            elif res.kind is ResolutionKind.BARRIER:
                n_barrier += 1
    timing_only = (
        n_timing_sec / (n_timing_sec + n_barrier)
        if (n_timing_sec + n_barrier)
        else 0.0
    )
    broad_num = n_timing_sec + n_path
    broad = (
        broad_num / (broad_num + n_barrier) if (broad_num + n_barrier) else 0.0
    )
    return SecondaryEffectResult(
        timing_only_fraction=timing_only,
        broad_fraction=broad,
        n_timing_secondary=n_timing_sec,
        n_path=n_path,
        n_barrier_edges=n_barrier,
    )


# ---------------------------------------------------------------------------
# E14: conservative vs optimal insertion (section 4.4.2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsertionComparisonResult:
    mean_barriers_conservative: float
    mean_barriers_optimal: float
    mean_rescues: float
    cases_improved: int
    n_cases: int

    def render(self) -> str:
        return (
            "Conservative vs optimal barrier insertion (section 4.4.2)\n"
            f"mean barriers: conservative {self.mean_barriers_conservative:.2f}, "
            f"optimal {self.mean_barriers_optimal:.2f}\n"
            f"mean timing checks rescued by overlap analysis: {self.mean_rescues:.2f}\n"
            f"benchmarks with fewer barriers under optimal: "
            f"{self.cases_improved}/{self.n_cases}\n"
            "paper: the conservative algorithm was used for all experiments"
            "\nbecause it is much simpler and the results were very good."
        )


def optimal_vs_conservative(
    count: int = 60, master_seed: int = 14, n_pes: int = 8
) -> InsertionComparisonResult:
    """Barrier counts under the two insertion algorithms on one corpus."""
    point = ExperimentPoint(
        generator=GeneratorConfig(n_statements=60, n_variables=10),
        count=count,
        master_seed=master_seed,
    )
    conservative = SchedulerConfig(n_pes=n_pes, insertion="conservative")
    optimal = SchedulerConfig(n_pes=n_pes, insertion="optimal")
    cons_barriers, opt_barriers, rescues = [], [], []
    improved = 0
    for cons, opt in zip(
        run_corpus(point.with_(scheduler=conservative)),
        run_corpus(point.with_(scheduler=optimal)),
    ):
        cons_barriers.append(cons.counts.barriers_final)
        opt_barriers.append(opt.counts.barriers_final)
        rescues.append(opt.counts.optimal_rescues)
        if opt.counts.barriers_final < cons.counts.barriers_final:
            improved += 1
    return InsertionComparisonResult(
        mean_barriers_conservative=float(np.mean(cons_barriers)),
        mean_barriers_optimal=float(np.mean(opt_barriers)),
        mean_rescues=float(np.mean(rescues)),
        cases_improved=improved,
        n_cases=count,
    )


# ---------------------------------------------------------------------------
# E15 (extension): cost of non-ideal barrier hardware
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarrierCostResult:
    latencies: tuple[int, ...]
    mean_makespan_max: tuple[float, ...]
    mean_makespan_min: tuple[float, ...]
    barrier_fraction: tuple[float, ...]

    def render(self) -> str:
        rows = [
            [lat, f"{lo:.1f}", f"{hi:.1f}", f"{bf:.1%}"]
            for lat, lo, hi, bf in zip(
                self.latencies,
                self.mean_makespan_min,
                self.mean_makespan_max,
                self.barrier_fraction,
            )
        ]
        return (
            "Barrier hardware cost (extension; 60 stmts, 10 vars, 8 PEs)\n"
            + table(["latency", "Tmin", "Tmax", "barrier frac"], rows)
            + "\npaper section 5 assumes latency 0 ('barriers ... execute"
            + "\nimmediately'); [OKDi90] studies the hardware this models."
        )


def barrier_cost_experiment(
    count: int = 50,
    master_seed: int = 15,
    latencies: Sequence[int] = (0, 1, 2, 4, 8),
) -> BarrierCostResult:
    """Makespans and fractions as the barrier release latency grows.

    Slower barrier hardware both stretches the schedule directly and
    feeds back into the *scheduler*: later fire times widen downstream
    timing windows, occasionally changing which edges resolve statically.
    """
    lo_means, hi_means, fractions = [], [], []
    for latency in latencies:
        point = ExperimentPoint(
            generator=GeneratorConfig(n_statements=60, n_variables=10),
            scheduler=SchedulerConfig(n_pes=8, barrier_latency=latency),
            count=count,
            master_seed=master_seed,
        )
        stats = run_point(point)
        lo_means.append(stats.mean_makespan_min)
        hi_means.append(stats.mean_makespan_max)
        fractions.append(stats.barrier.mean)
    return BarrierCostResult(
        latencies=tuple(latencies),
        mean_makespan_max=tuple(hi_means),
        mean_makespan_min=tuple(lo_means),
        barrier_fraction=tuple(fractions),
    )
