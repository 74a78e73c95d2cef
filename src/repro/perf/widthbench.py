"""Machine-width gate: a wide machine must cost about what the PEs used cost.

A block on a 1024-PE machine uses a dozen PEs.  With sparse per-PE
schedule state (:mod:`repro.core.schedule`) and the step-[2] idle class
(:mod:`repro.core.assignment`), scheduling cost follows the PEs in use,
not the machine width.  This module measures that property end to end:

* the workload is the ``scale1024`` preset's points (40/60/80
  statements at 1024 PEs, :data:`COUNT` cases each, seed 0) plus the
  same points on a :data:`NARROW_PES`-PE machine that still has room
  for every case;
* one timed unit is ``run_corpus`` + ``aggregate_results`` of a point,
  serial, the way an experiment sweep consumes it;
* the two widths run *interleaved*, point by point, repetition by
  repetition, and each point keeps its best of :data:`REPS`;
* the gate fails when the wide total exceeds :data:`MAX_RATIO` times
  the narrow total, or when some wide case uses as many PEs as the
  narrow machine has (the narrow run would then do different work).

``python -m repro.perf.widthbench`` runs the gate from CI (see the
``scale-gates`` job); exit status 1 means the wide machine costs
more than the ratio allows.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.sweeps import ExperimentPoint, _set_axis, run_corpus
from repro.metrics.stats import aggregate_results
from repro.perf.gctune import batched_gc
from repro.perf.report import PRESETS
from repro.synth.generator import GeneratorConfig

__all__ = ["bench_width", "gate_points", "main"]

COUNT = 50
REPS = 3
NARROW_PES = 32
#: CI acceptance: the wide corpus may cost at most this multiple of the
#: same corpus on the narrow machine.
MAX_RATIO = 1.5


def gate_points() -> list[ExperimentPoint]:
    """The ``scale1024`` preset's points, :data:`COUNT` cases each."""
    ((axis, values, overrides),) = PRESETS["scale1024"]
    point = ExperimentPoint(
        generator=GeneratorConfig(n_statements=20, n_variables=8), count=COUNT
    )
    for over_axis, over_value in overrides.items():
        point = _set_axis(point, over_axis, over_value)
    return [_set_axis(point, axis, value) for value in values]


def _timed_point(point: ExperimentPoint) -> tuple[float, int]:
    """Seconds for one point's corpus + aggregation, and its widest case."""
    t0 = time.perf_counter()
    results = run_corpus(point, jobs=1)
    aggregate_results(results)
    elapsed = time.perf_counter() - t0
    return elapsed, max(r.schedule.used_processors() for r in results)


def bench_width() -> dict:
    """Run the interleaved width benchmark; return its record."""
    points = gate_points()
    best_wide = [float("inf")] * len(points)
    best_narrow = [float("inf")] * len(points)
    widest = 0
    with batched_gc():
        for _ in range(REPS):
            for i, point in enumerate(points):
                elapsed, used = _timed_point(point)
                best_wide[i] = min(best_wide[i], elapsed)
                widest = max(widest, used)
                elapsed, _ = _timed_point(
                    _set_axis(point, "scheduler.n_pes", NARROW_PES)
                )
                best_narrow[i] = min(best_narrow[i], elapsed)
    wide_total = sum(best_wide)
    narrow_total = sum(best_narrow)
    return {
        "widest_case_pes": widest,
        "points": [
            {
                "n_statements": point.generator.n_statements,
                "n_pes": point.scheduler.n_pes,
                "wide_s": best_wide[i],
                "narrow_s": best_narrow[i],
            }
            for i, point in enumerate(points)
        ],
        "wide_s": wide_total,
        "narrow_s": narrow_total,
        "ratio": wide_total / narrow_total if narrow_total else float("inf"),
    }


def main(argv: list[str] | None = None) -> int:
    """Run the gate; any command-line argument is an error (exit 2)."""
    if argv:
        print(
            f"usage: python -m repro.perf.widthbench (takes no arguments; the "
            f"shape is the module constants COUNT, NARROW_PES, REPS, MAX_RATIO); got {' '.join(argv)}",
            file=sys.stderr,
        )
        return 2
    record = bench_width()
    for point in record["points"]:
        print(
            f"S={point['n_statements']:<3} {point['n_pes']} PEs "
            f"{point['wide_s']:.3f}s  {NARROW_PES} PEs "
            f"{point['narrow_s']:.3f}s  {point['wide_s'] / point['narrow_s']:.2f}x"
        )
    print(
        f"total ({COUNT} cases x {len(record['points'])} points, "
        f"best of {REPS}): wide {record['wide_s']:.3f}s  "
        f"narrow {record['narrow_s']:.3f}s  ratio {record['ratio']:.2f}x  "
        f"(widest case {record['widest_case_pes']} PEs)"
    )
    if record["widest_case_pes"] >= NARROW_PES:
        print(
            f"width-gate: a case uses {record['widest_case_pes']} PEs, so "
            f"{NARROW_PES} PEs is not the same corpus",
            file=sys.stderr,
        )
        return 1
    if record["ratio"] > MAX_RATIO:
        print(
            f"width-gate: the wide machine costs {record['ratio']:.2f}x the "
            f"narrow one (limit {MAX_RATIO:g}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
