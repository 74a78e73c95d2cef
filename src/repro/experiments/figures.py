"""Figure-by-figure reproductions of the paper's evaluation (section 5-6).

Every function is deterministic in its ``master_seed`` and parameterized
by corpus size (the paper averages 100 benchmarks per point; benchmarks
may pass a smaller ``count`` for speed -- the shapes are stable well
below 100).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.scheduler import SchedulerConfig
from repro.experiments.render import line_chart, scatter_plot, table
from repro.experiments.sweeps import ExperimentPoint, run_corpus, sweep
from repro.machine.vliw import vliw_schedule
from repro.metrics.fractions import fractions_of
from repro.metrics.stats import CorpusStats
from repro.synth.corpus import BenchmarkCase
from repro.synth.generator import GeneratorConfig

__all__ = [
    "ScatterResult",
    "SweepResult",
    "VliwComparisonResult",
    "figure14_scatter",
    "figure15_statements",
    "figure16_variables",
    "figure17_processors",
    "figure18_vliw",
]

#: Figure 14 keeps benchmarks whose DAGs imply 65..132 synchronizations.
FIG14_SYNC_RANGE = (65, 132)


# ---------------------------------------------------------------------------
# Figure 14: scatter of serialized vs statically scheduled fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatterResult:
    """Outcome of the figure 14 experiment."""

    points: tuple[tuple[float, float], ...]  # (static, serialized)
    center_static: float
    center_serialized: float

    @property
    def center_no_runtime(self) -> float:
        """Center-of-mass serialized + static; the paper reads ~85%."""
        return self.center_static + self.center_serialized

    def render(self) -> str:
        plot = scatter_plot(
            self.points,
            x_label="static scheduling fraction",
            y_label="serialized fraction",
            x_range=(0.0, 0.6),
            y_range=(0.0, 1.0),
        )
        return (
            f"Figure 14: {len(self.points)} benchmarks "
            f"({FIG14_SYNC_RANGE[0]}..{FIG14_SYNC_RANGE[1]} syncs)\n"
            f"{plot}\n"
            f"center of mass: static {self.center_static:.1%} + "
            f"serialized {self.center_serialized:.1%} = "
            f"{self.center_no_runtime:.1%}  (paper: ~85% line)"
        )


def _fig14_accept(case: BenchmarkCase) -> bool:
    """Figure 14's filter; module level so that it pickles to workers."""
    lo, hi = FIG14_SYNC_RANGE
    return lo <= case.implied_synchronizations <= hi


def figure14_scatter(
    count: int = 400,
    master_seed: int = 14,
    n_pes: int = 8,
) -> ScatterResult:
    """Serialized-vs-static scatter over large benchmarks (figure 14).

    Benchmarks are drawn from a mix of generator shapes and kept only if
    their optimized DAG implies 65..132 synchronizations, matching the
    figure's caption.
    """
    shapes = [
        GeneratorConfig(n_statements=60, n_variables=10),
        GeneratorConfig(n_statements=80, n_variables=12),
        GeneratorConfig(n_statements=100, n_variables=15),
    ]
    per_shape = max(1, count // len(shapes))
    points: list[tuple[float, float]] = []
    for k, gen in enumerate(shapes):
        point = ExperimentPoint(
            generator=gen,
            scheduler=SchedulerConfig(n_pes=n_pes),
            count=per_shape,
            master_seed=master_seed + k,
        )
        for result in run_corpus(point, accept=_fig14_accept):
            fr = fractions_of(result)
            points.append((fr.static, fr.serialized))

    arr = np.asarray(points)
    return ScatterResult(
        points=tuple(map(tuple, points)),
        center_static=float(arr[:, 0].mean()),
        center_serialized=float(arr[:, 1].mean()),
    )


# ---------------------------------------------------------------------------
# Figures 15-17: sync fractions along one parameter axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """One fraction-vs-parameter line chart (figures 15, 16, 17)."""

    title: str
    axis_label: str
    x_values: tuple[object, ...]
    stats: tuple[CorpusStats, ...]
    notes: tuple[str, ...] = field(default=())

    def series(self) -> dict[str, list[float]]:
        return {
            "barrier": [s.barrier.mean for s in self.stats],
            "serialized": [s.serialized.mean for s in self.stats],
            "static": [s.static.mean for s in self.stats],
        }

    def rows(self) -> list[list[object]]:
        return [
            [
                x,
                f"{s.barrier.mean:.1%}",
                f"{s.serialized.mean:.1%}",
                f"{s.static.mean:.1%}",
                f"{s.mean_implied_syncs:.1f}",
                f"{s.mean_barriers:.2f}",
                f"{s.mean_processors_used:.1f}",
            ]
            for x, s in zip(self.x_values, self.stats)
        ]

    def render(self) -> str:
        head = [self.axis_label, "barrier", "serial", "static", "syncs", "bars", "PEs used"]
        chart = line_chart(
            self.x_values, self.series(), y_label="fraction of implied syncs", y_max=1.0
        )
        body = table(head, self.rows())
        notes = "\n".join(self.notes)
        return f"{self.title}\n{body}\n\n{chart}" + (f"\n{notes}" if notes else "")


def _sweep_figure(
    title: str,
    axis: str,
    axis_label: str,
    values: Sequence[object],
    base: ExperimentPoint,
    notes: tuple[str, ...] = (),
) -> SweepResult:
    swept = sweep(base, axis, values)
    return SweepResult(
        title=title,
        axis_label=axis_label,
        x_values=tuple(v for v, _ in swept),
        stats=tuple(s for _, s in swept),
        notes=notes,
    )


def figure15_statements(
    count: int = 100,
    master_seed: int = 15,
    values: Sequence[int] = (5, 10, 15, 20, 30, 40, 50, 60),
) -> SweepResult:
    """Fractions vs number of statements (8 PEs, 15 variables; figure 15)."""
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=5, n_variables=15),
        scheduler=SchedulerConfig(n_pes=8),
        count=count,
        master_seed=master_seed,
    )
    return _sweep_figure(
        "Figure 15: sync fractions, 8 PEs, 15 variables",
        "generator.n_statements",
        "stmts",
        values,
        base,
        notes=(
            "paper: barrier fraction decreases 5->20 stmts (fewer Loads up",
            "front), then flattens as Mul/Div/Mod appear; serialization",
            "decreases with block size.",
        ),
    )


def figure16_variables(
    count: int = 100,
    master_seed: int = 16,
    values: Sequence[int] = (2, 3, 4, 5, 6, 8, 10, 12, 15),
) -> SweepResult:
    """Fractions vs number of variables (8 PEs, 60 statements; figure 16)."""
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=60, n_variables=2),
        scheduler=SchedulerConfig(n_pes=8),
        count=count,
        master_seed=master_seed,
    )
    return _sweep_figure(
        "Figure 16: sync fractions, 8 PEs, 60 statements",
        "generator.n_variables",
        "vars",
        values,
        base,
        notes=(
            "paper: barrier fraction rises with parallelism width until it",
            "exceeds the processor count, then is constant; serialization",
            "falls as width grows.",
        ),
    )


def figure17_processors(
    count: int = 100,
    master_seed: int = 17,
    values: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
) -> SweepResult:
    """Fractions vs number of processors (100 stmts, 10 vars; figure 17)."""
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=100, n_variables=10),
        scheduler=SchedulerConfig(n_pes=2),
        count=count,
        master_seed=master_seed,
    )
    return _sweep_figure(
        "Figure 17: sync fractions, 100 statements, 10 variables",
        "scheduler.n_pes",
        "PEs",
        values,
        base,
        notes=(
            "paper: barrier fraction rises while PEs < parallelism width,",
            "then is constant; serialization stays nearly flat.",
        ),
    )


# ---------------------------------------------------------------------------
# Figure 18: VLIW vs barrier MIMD completion time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VliwComparisonResult:
    """Normalized completion times vs processor count (figure 18)."""

    x_values: tuple[int, ...]
    barrier_min: tuple[float, ...]  # mean of (barrier min makespan / VLIW)
    barrier_max: tuple[float, ...]
    vliw_optimal_fraction: tuple[float, ...]  # schedules hitting critical path

    def render(self) -> str:
        rows = [
            [
                pes,
                f"{bmin:.3f}",
                f"{bmax:.3f}",
                "1.000",
                f"{opt:.0%}",
            ]
            for pes, bmin, bmax, opt in zip(
                self.x_values,
                self.barrier_min,
                self.barrier_max,
                self.vliw_optimal_fraction,
            )
        ]
        body = table(
            ["PEs", "barrier min", "barrier max", "VLIW", "VLIW=critpath"], rows
        )
        chart = line_chart(
            self.x_values,
            {
                "barrier-min/VLIW": list(self.barrier_min),
                "barrier-max/VLIW": list(self.barrier_max),
            },
            y_label="completion time normalized to VLIW",
            y_max=1.5,
        )
        return (
            "Figure 18: VLIW vs barrier MIMD, 60 statements, 10 variables\n"
            f"{body}\n\n{chart}\n"
            "paper: max times nearly identical (barrier slightly above at\n"
            "few PEs); min barrier time ~25% below VLIW."
        )


def figure18_vliw(
    count: int = 100,
    master_seed: int = 18,
    values: Sequence[int] = (2, 4, 8, 16, 32, 64, 128),
    n_statements: int = 60,
    n_variables: int = 10,
) -> VliwComparisonResult:
    """Barrier-MIMD completion (min/max) normalized to VLIW (figure 18)."""
    point = ExperimentPoint(
        generator=GeneratorConfig(
            n_statements=n_statements, n_variables=n_variables
        ),
        count=count,
        master_seed=master_seed,
    )
    mins: list[float] = []
    maxs: list[float] = []
    opts: list[float] = []
    for pes in values:
        ratios_min, ratios_max, optimal = [], [], 0
        results = run_corpus(point.with_(scheduler=SchedulerConfig(n_pes=pes)))
        for result in results:
            vliw = vliw_schedule(result.schedule.dag, pes)
            ratios_min.append(result.makespan.lo / vliw.makespan)
            ratios_max.append(result.makespan.hi / vliw.makespan)
            optimal += vliw.is_critical_path_optimal
        mins.append(float(np.mean(ratios_min)))
        maxs.append(float(np.mean(ratios_max)))
        opts.append(optimal / len(results))

    return VliwComparisonResult(
        x_values=tuple(values),
        barrier_min=tuple(mins),
        barrier_max=tuple(maxs),
        vliw_optimal_fraction=tuple(opts),
    )
