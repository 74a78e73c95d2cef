"""The ``repro-sbm perf`` harness: a standard sweep, timed end to end.

Emits a machine-readable ``BENCH_*.json`` record -- per-stage timings,
wall time, environment, and the swept headline numbers -- so the repo
has a performance *trajectory*: each data point is comparable with the
checked-in baseline (``benchmarks/data/BENCH_perf_baseline.json``) and
the CI perf-smoke job fails when end-to-end wall time regresses past
2x the baseline.

The workload is deliberately fixed: a ``generator.n_statements`` sweep
over a mid-size corpus plus one simulation pass, exercising every
instrumented stage (generate / schedule / insert / merge / simulate).
The *scheduling results* inside a report are deterministic in the master
seed; only the timings vary by machine.  One metrics registry collects
the whole run, pool workers' entries included; :mod:`repro.obs.prof`
derives the record's ``profile`` block from it, and the ``stages``
block is that profile's stage table.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro import __version__, kernels
from repro.core.scheduler import SchedulerConfig
from repro.machine.program import MachineProgram
from repro.machine.sbm import simulate_sbm
from repro.metrics.stats import aggregate_results
from repro.obs.metrics import collect_metrics
from repro.obs.prof import metrics_block, profile_block, render_profile, sample_rss
from repro.obs.runtime import analyze_trace
from repro.perf import DEFAULT_TRAJECTORY
from repro.perf.parallel import resolve_jobs, results_digest
from repro.perf.timers import STAGES
from repro.synth.generator import GeneratorConfig

if TYPE_CHECKING:
    from repro.obs.progress import ProgressMeter

__all__ = [
    "PerfReport",
    "run_perf_report",
    "trajectory_entry",
    "append_trajectory",
    "DEFAULT_TRAJECTORY",
    "PRESETS",
    "PRESET_COUNTS",
    "TRAJECTORY_FORMAT",
]

_FORMAT = "repro.perf-report.v1"

TRAJECTORY_FORMAT = "repro.perf-trajectory.v1"

#: The standard sweep axis and values of the perf workload.
PERF_AXIS = "generator.n_statements"
PERF_VALUES: tuple[int, ...] = (10, 20, 30)

#: Benchmarks simulated (one run each) to exercise the simulate stage.
SIMULATED_CASES = 10

#: Named workloads: each preset is a tuple of sweep legs
#: ``(axis, values, base overrides)``, overrides being dotted axes
#: applied to the base point before the leg's sweep.
#:
#: ``default``
#:     The original mid-size smoke workload (3 points).
#: ``paper3500``
#:     The paper-scale evaluation: 35 sweep points x 100 benchmarks =
#:     3500 scheduled benchmarks (PAPER.md section 5) -- a size sweep,
#:     a machine-width sweep up to 1024 PEs, and the paper's ablations
#:     (round-robin assignment, the DBM, optimal insertion).
#: ``scale1024``
#:     The 1024-PE stress leg on its own: the workload behind the CI
#:     ``scale-gates`` job's kernel-check digest gate and machine-width
#:     gate (:mod:`repro.perf.widthbench`) and the committed scaling
#:     record.
PRESETS: dict[str, tuple[tuple[str, tuple, dict], ...]] = {
    "default": ((PERF_AXIS, PERF_VALUES, {}),),
    "paper3500": (
        (PERF_AXIS, (10, 15, 20, 25, 30, 35, 40, 50, 60, 80), {}),
        ("scheduler.n_pes", (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024), {}),
        (PERF_AXIS, (10, 20, 30, 40, 50), {"scheduler.assignment": "roundrobin"}),
        (PERF_AXIS, (10, 20, 30, 40, 50), {"scheduler.machine": "dbm"}),
        (PERF_AXIS, (10, 20, 30, 40, 50), {"scheduler.insertion": "optimal"}),
    ),
    "scale1024": (
        (PERF_AXIS, (40, 60, 80), {"scheduler.n_pes": 1024}),
    ),
}

#: Default benchmarks per sweep point, by preset.
PRESET_COUNTS: dict[str, int] = {
    "default": 25,
    "paper3500": 100,
    "scale1024": 100,
}


@dataclass(frozen=True)
class PerfReport:
    """One perf-trajectory data point, JSON-shaped."""

    data: dict

    @property
    def wall_s(self) -> float:
        return self.data["wall_s"]

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.data, indent=1, sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        d = self.data
        stage_cpu = d["stages"].get("cpu", {})
        stages = "  ".join(
            f"{s} {d['stages'][s]:.3f}s"
            + (f"/{stage_cpu[s]:.3f}c" if s in stage_cpu else "")
            for s in STAGES
        )
        preset = d.get("preset", "default")
        wall_line = f"wall {d['wall_s']:.3f}s"
        if d.get("cases_per_s"):
            wall_line += f" ({d['cases_per_s']:.1f} cases/s)"
        lines = [
            f"perf report ({d['format']})  repro {d['version']}  "
            f"python {d['python']}  jobs={d['jobs']}/{d['cpu_count']} cpus",
            f"workload: preset {preset}, {len(d['points'])} sweep points "
            f"x {d['count']} benchmarks + {d['simulated_cases']} simulations",
            f"{wall_line}   {stages}",
            f"results digest {d['results_digest'][:16]}...",
        ]
        if d.get("corpus_digest"):
            lines.append(
                f"corpus digest {d['corpus_digest'][:16]}... "
                f"(every swept case)"
            )
        for i, leg in enumerate(d.get("legs", ())):
            if "wall_s" in leg:
                lines.append(
                    f"  leg {i} {leg['axis']}: {leg['cases']} cases  "
                    f"wall {leg['wall_s']:.3f}s  "
                    f"{leg['cases_per_s']:.1f} cases/s"
                )
        profile = d.get("profile")
        if profile and (profile.get("kernels") or profile.get("peak_rss")):
            lines.append(render_profile(profile, top=3))
        backend = d.get("backend")
        if backend:
            calls = backend.get("calls", {})
            numpy_calls = sum(
                n for key, n in calls.items() if key.endswith(".numpy")
            )
            python_calls = sum(
                n for key, n in calls.items() if key.endswith(".python")
            )
            lines.append(
                f"backend {backend.get('resolved')} "
                f"(check {'on' if backend.get('checking') else 'off'}); "
                f"kernel calls numpy {numpy_calls} python {python_calls}"
            )
        counters = d.get("metrics", {}).get("counters", {})
        checked = counters.get("views.check.checked", 0)
        if checked:
            lines.append(
                f"incremental cross-check: {checked} views checked, "
                f"{counters.get('views.check.mismatches', 0)} mismatches"
            )
        for row in d["points"]:
            axis = row.get("axis", d["axis"])
            lines.append(
                f"  {axis}={row['value']:<4} barrier {row['barrier']:.3f} "
                f"serialized {row['serialized']:.3f} static {row['static']:.3f} "
                f"barriers {row['mean_barriers']:.2f}"
            )
        return "\n".join(lines)


def stages_block(profile: dict) -> dict:
    """A record's ``stages`` block from its ``profile`` block: each
    stage's wall seconds (0 for a stage that never ran), plus ``cpu``
    seconds for the stages that ran."""
    ran = profile["stages"]
    block: dict = {
        name: ran[name]["wall_s"] if name in ran else 0.0 for name in STAGES
    }
    block["cpu"] = {name: ran[name]["cpu_s"] for name in STAGES if name in ran}
    return block


def trajectory_entry(data: dict, label: str = "") -> dict:
    """Reduce one perf-report record to a trajectory-series line.

    The trajectory keeps only what the watchdog
    (:mod:`repro.obs.watch`) compares across runs: identity, timings
    per stage, throughput, the headline sweep numbers, the
    ``results_digest`` that separates behaviour changes from perf
    changes (plus the ``corpus_digest`` of every swept case), and a
    trimmed resource profile (per-kernel timings, GC,
    peak RSS) so ``watch --explain`` can attribute a flagged
    regression.  Works on a live report's ``.data`` and on any
    committed ``BENCH_*.json``.
    """
    profile = data.get("profile") or {}
    return {
        "format": TRAJECTORY_FORMAT,
        "label": label,
        "created_unix": data.get("created_unix", time.time()),
        "version": data.get("version"),
        "python": data.get("python"),
        "platform": data.get("platform"),
        "jobs": data.get("jobs"),
        "count": data.get("count"),
        "master_seed": data.get("master_seed"),
        "preset": data.get("preset", "default"),
        "backend": (data.get("backend") or {}).get("resolved"),
        "wall_s": data.get("wall_s"),
        "cases_per_s": data.get("cases_per_s"),
        "stages": dict(data.get("stages", {})),
        "legs": [
            {
                "axis": leg.get("axis"),
                "cases": leg.get("cases"),
                "wall_s": leg.get("wall_s"),
                "cases_per_s": leg.get("cases_per_s"),
                "digest": leg.get("digest"),
            }
            for leg in data.get("legs", ())
            if "wall_s" in leg
        ],
        "profile": {
            "kernels": profile.get("kernels", {}),
            "gc": profile.get("gc", {}),
            "peak_rss": profile.get("peak_rss"),
        }
        if profile
        else None,
        "results_digest": data.get("results_digest"),
        "corpus_digest": data.get("corpus_digest"),
        "points": [
            {
                "value": p.get("value"),
                "barrier": p.get("barrier"),
                "serialized": p.get("serialized"),
                "static": p.get("static"),
                "mean_makespan_max": p.get("mean_makespan_max"),
            }
            for p in data.get("points", [])
        ],
    }


def append_trajectory(
    data: dict, path: str | Path = DEFAULT_TRAJECTORY, label: str = ""
) -> Path:
    """Append one trajectory line (creating the file and its parents)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = trajectory_entry(data, label=label)
    with path.open("a", encoding="utf-8") as fp:
        fp.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def run_perf_report(
    count: int | None = None,
    jobs: int | None = None,
    master_seed: int = 0,
    preset: str = "default",
    progress: "ProgressMeter | None" = None,
) -> PerfReport:
    """Run one preset perf workload and reduce it to a report.

    ``count`` defaults to the preset's standard corpus size
    (:data:`PRESET_COUNTS`).  The simulation pass runs on the first
    leg's base point, so the ``scale1024`` preset simulates (and
    digests) at 1024 PEs.  A ``progress`` meter is told the run's case
    total, then advanced after each sweep point and after the
    simulation corpus.

    Every swept case is digested too: each point's rows get their
    ``results_digest``, each leg a digest over its points' digests,
    and the record a ``corpus_digest`` over every point's.  The
    digesting runs outside the timed walls (``digest_s`` says how
    long it took), so the walls time what the sweep does.
    """
    from repro.experiments.sweeps import ExperimentPoint, _set_axis, run_corpus

    if preset not in PRESETS:
        raise ValueError(
            f"unknown perf preset {preset!r}; expected one of "
            f"{', '.join(sorted(PRESETS))}"
        )
    legs = [
        (axis, list(vals), dict(overrides))
        for axis, vals, overrides in PRESETS[preset]
    ]
    if count is None:
        count = PRESET_COUNTS[preset]
    jobs = resolve_jobs(jobs)
    base = ExperimentPoint(
        generator=GeneratorConfig(n_statements=20, n_variables=8),
        scheduler=SchedulerConfig(n_pes=8),
        count=count,
        master_seed=master_seed,
    )

    # numpy loads on first use; resolving the backend loads it (when it
    # serves) before the clock starts, so no stage pays for the import.
    kernels.resolved_backend()
    start = time.perf_counter()
    # (axis, value, stats, results_digest of the point's rows)
    swept: list[tuple[str, object, object, str]] = []
    leg_walls: list[float] = []
    leg_digests: list[str] = []
    digest_s = 0.0
    sim_count = min(count, SIMULATED_CASES)
    total_cases = sum(len(vals) for _, vals, _ in legs) * count + sim_count
    if progress is not None:
        progress.set_total(total_cases)
    # The registry is always on for a perf run: besides its counters,
    # its per-stage and per-kernel timings and memory accounts go into
    # the report (and, trimmed, into the trajectory so ``watch
    # --explain`` can attribute regressions).
    with collect_metrics() as registry:
        sim_base = base
        for leg_index, (axis, leg_values, overrides) in enumerate(legs):
            point = base
            for over_axis, over_value in overrides.items():
                point = _set_axis(point, over_axis, over_value)
            if leg_index == 0:
                sim_base = point
            leg_wall = 0.0
            point_digests: list[str] = []
            for value in leg_values:
                swept_at = time.perf_counter()
                rows = run_corpus(
                    _set_axis(point, axis, value), jobs=jobs, compact=True
                )
                stats = aggregate_results(rows)
                timed_end = time.perf_counter()
                leg_wall += timed_end - swept_at
                point_digests.append(results_digest(rows))
                del rows
                digest_s += time.perf_counter() - timed_end
                swept.append((axis, value, stats, point_digests[-1]))
                if progress is not None:
                    progress.advance(count)
            leg_walls.append(leg_wall)
            leg_digests.append(_digest_of(point_digests))
        sim_results = run_corpus(sim_base.with_(count=sim_count), jobs=jobs)
        for result in sim_results:
            program = MachineProgram.from_schedule(result.schedule)
            trace = simulate_sbm(program, rng=master_seed)
            trace.assert_sound(program.edges)
            # Observation only: feeds the engine.* metric family
            # (PE utilization, barrier wait, release skew, superstep
            # imbalance) into the report's metrics block.
            analyze_trace(program, trace)
        if progress is not None:
            progress.advance(len(sim_results))
    wall = time.perf_counter() - start - digest_s
    sample_rss(registry)
    profile = profile_block(registry)
    merged = metrics_block(registry)
    # Pool workers count their dispatches into the merged metrics, not
    # into this process's module tally, so the report reads the former.
    backend = kernels.kernels_info()
    backend["calls"] = {
        key: n
        for key, n in merged["counters"].items()
        if key.startswith("kernels.calls.")
    }

    points = [
        {
            "axis": axis,
            "value": value,
            "n_benchmarks": stats.n_benchmarks,
            "barrier": stats.barrier.mean,
            "serialized": stats.serialized.mean,
            "static": stats.static.mean,
            "mean_barriers": stats.mean_barriers,
            "mean_makespan_max": stats.mean_makespan_max,
            "digest": digest,
        }
        for axis, value, stats, digest in swept
    ]
    data = {
        "format": _FORMAT,
        "version": __version__,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "jobs": jobs,
        "count": count,
        "master_seed": master_seed,
        "preset": preset,
        "axis": legs[0][0],
        "values": legs[0][1],
        "legs": [
            {
                "axis": axis,
                "values": vals,
                "base": overrides,
                "cases": len(vals) * count,
                "wall_s": leg_walls[i],
                "cases_per_s": (
                    len(vals) * count / leg_walls[i] if leg_walls[i] else 0.0
                ),
                "digest": leg_digests[i],
            }
            for i, (axis, vals, overrides) in enumerate(legs)
        ],
        "backend": backend,
        "simulated_cases": len(sim_results),
        "wall_s": wall,
        "cases_per_s": total_cases / wall if wall else 0.0,
        "stages": stages_block(profile),
        "metrics": merged,
        "profile": profile,
        "results_digest": results_digest(sim_results),
        "corpus_digest": _digest_of([digest for *_, digest in swept]),
        "digest_s": digest_s,
        "points": points,
    }
    return PerfReport(data)


def _digest_of(digests: list[str]) -> str:
    """sha256 over a sequence of ``results_digest`` hex strings."""
    blob = json.dumps(digests, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
