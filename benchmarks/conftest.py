"""Shared configuration for the benchmark/reproduction harness.

Every file in this directory regenerates one table or figure of the
paper (see the experiment index in DESIGN.md).  Each test

* runs the experiment once under ``benchmark.pedantic`` (so
  ``--benchmark-only`` measures the end-to-end cost of reproducing the
  artifact), and
* prints the reproduced rows/series straight to the terminal (bypassing
  capture), annotated with the paper's reported values.

Corpus sizes default to :data:`BENCH_COUNT` benchmarks per parameter
point (the paper uses 100; the shapes are stable well below that).  Set
``REPRO_BENCH_COUNT=100`` in the environment for full paper-scale runs;
at that scale the corpus drivers fan out over all cores by default
(``REPRO_JOBS=0``; export ``REPRO_JOBS`` yourself to pin a worker count
or force serial with ``REPRO_JOBS=1``).  Parallel results are
bit-identical to serial -- see docs/performance.md.

The numpy kernels engage on their own when numpy imports and a call is
large enough (see :mod:`repro.kernels`); they never change a result.
"""

from __future__ import annotations

import os

import pytest

#: Benchmarks per parameter point (paper: 100).
BENCH_COUNT = int(os.environ.get("REPRO_BENCH_COUNT", "50"))

#: Full-paper-scale runs are exactly when parallelism pays for the pool
#: startup; smaller runs keep the serial default.
if BENCH_COUNT >= 100:
    os.environ.setdefault("REPRO_JOBS", "0")  # 0 = all cores


@pytest.fixture
def show(capfd):
    """Print a result block to the real stdout, bypassing pytest capture."""
    import sys

    def _show(title: str, body: str) -> None:
        with capfd.disabled():
            sys.stdout.write(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")
            sys.stdout.flush()

    return _show


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
