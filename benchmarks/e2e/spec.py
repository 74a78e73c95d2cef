"""Workloads, run shape and metric table of the end-to-end benchmark.

This module imports nothing from ``repro``: the parent process that
orchestrates the phase subprocesses only needs the plan, and the tests
read the table without running anything.

``BENCHMARK.json`` at the repository root is the authority for metric
names, units, directions and regression bounds.  :data:`EXTRA_METRICS`
holds the end-to-end metrics it does not list: ``fail_rate`` is 0 on
every healthy run, and the file's metrics must never read 0;
``makespan_max_mean`` varies too much between workload seeds for a
tight bound there, and ``makespan_over_cp`` stands in for it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

#: Repository root (this file is ``<root>/benchmarks/e2e/spec.py``).
ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
#: Span files of traced runs (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Every workload uses the paper's 8-variable blocks.
N_VARIABLES = 8
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_STARTS = 5
#: Rounds of a measure phase: every point is timed this many times and
#: its best time kept.  Fixed, so that the estimator is the same on every
#: commit however fast it runs.
ROUNDS = 3

#: End-to-end metrics not in ``BENCHMARK.json``: name -> (unit, better, bound).
EXTRA_METRICS: dict[str, tuple[str, str, float]] = {
    "fail_rate": ("ratio", "lower", 0.0),
    "makespan_max_mean": ("time_units", "lower", 0.0),
}

#: Metrics that repeat exactly for a given workload seed.  ``compare``
#: pairs runs at the same seed, so it reports any worsening of these as a
#: regression, whatever their bound.
EXACT_METRICS = frozenset(
    {"fail_rate", "barriers_per_case", "makespan_max_mean", "makespan_over_cp"}
)


@dataclass(frozen=True)
class Workload:
    """One corpus shape: a grid of ``statements x replicas`` points.

    Each point's corpus has ``count`` cases; the first ``blocks`` cases
    of the points, taken round-robin, are the single blocks timed.
    """

    name: str
    why: str
    scheduler: dict = field(default_factory=dict)
    statements: tuple[int, ...] = (10,)
    replicas: int = 1
    jobs: int = 1
    count: int = 100
    blocks: int = 100

    def points(self, seed: int) -> list[tuple[int, int]]:
        """``(n_statements, master_seed)`` per point, replica-major.

        Workload seed ``S`` owns master seeds ``S*P .. S*P + P - 1`` for
        its ``P`` points, one per point.  Points sharing a master seed
        would draw the same case seeds, so their corpora would vary
        together from one workload seed to the next.
        """
        grid = [n for _ in range(self.replicas) for n in self.statements]
        return [(n, seed * len(grid) + i) for i, n in enumerate(grid)]

    def point_label(self, seed: int, index: int) -> str:
        n, master_seed = self.points(seed)[index]
        return f"point {index} (n_statements={n}, master_seed={master_seed})"

    def block_plan(self) -> list[tuple[int, int]]:
        """``(point index, case index)`` of each block, round-robin."""
        n_points = len(self.statements) * self.replicas
        return [(k % n_points, k // n_points) for k in range(self.blocks)]

    def block_depth(self) -> dict[int, int]:
        """Point index -> how many of its leading cases are blocks."""
        depth: dict[int, int] = {}
        for p, i in self.block_plan():
            depth[p] = max(depth.get(p, 0), i + 1)
        return depth

    def effective_jobs(self) -> int:
        """Corpus workers, never more than the machine's cores."""
        return max(1, min(self.jobs, os.cpu_count() or 1))


_PAPER_STATEMENTS = (10, 20, 30, 40, 50, 60)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper8",
            "the paper's own evaluation shape: 8 PEs, SBM, conservative "
            "insertion; every numpy graph kernel stays below threshold",
            {"n_pes": 8},
            _PAPER_STATEMENTS,
            replicas=2,
        ),
        Workload(
            "wide1024",
            "1024 PEs of which a case uses about 12, so per-PE bookkeeping "
            "dominates; the only workload where the assign kernel engages",
            {"n_pes": 1024},
            (40, 60, 80),
            # One replica: a sweep takes ~5 s here, and three are timed.
            replicas=1,
        ),
        Workload(
            "optimal_dbm",
            "16-PE DBM with optimal insertion: k-longest-path proofs, no "
            "merging, per-case finalize",
            {"n_pes": 16, "machine": "dbm", "insertion": "optimal"},
            (40, 60, 80),
            replicas=3,
        ),
        Workload(
            "paper8_jobs2",
            "paper8 through the 2-worker shared-memory driver with compact "
            "results; its digest must equal paper8's",
            {"n_pes": 8},
            _PAPER_STATEMENTS,
            replicas=2,
            jobs=2,
        ),
    )
}


def load_benchmark(path: Path = BENCHMARK_FILE) -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def end_to_end_table(benchmark: dict) -> dict[str, tuple[str, str, float]]:
    """name -> (unit, better, bound) for every end-to-end metric."""
    table = {
        m["name"]: (m["unit"], m["better"], float(m["bound"]))
        for m in benchmark["end_to_end"]
    }
    table.update(EXTRA_METRICS)
    return table


def per_layer_table(benchmark: dict) -> dict[str, str]:
    """name -> unit for every per-layer metric ``BENCHMARK.json`` lists."""
    return {m["name"]: m["unit"] for m in benchmark["per_layer"]}


def load_expected(path: Path = EXPECTED_FILE) -> dict[str, str]:
    """Seed-0 corpus digest per workload."""
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)
