"""Performance layer: parallel corpus execution, stage timers, perf records.

The paper's evaluation sweeps 3500+ synthetic basic blocks; this package
makes that affordable at full scale:

* :mod:`repro.perf.timers` -- the five pipeline stages (generate /
  schedule / insert / merge / simulate), timed into the active metrics
  registry (the ``prof.stage.*`` entries of :mod:`repro.obs.prof`);
* :mod:`repro.perf.parallel` -- the corpus chunk runner behind
  :func:`~repro.experiments.sweeps.run_corpus`, in-process or on a fork
  pool, bit-identical either way (``--jobs`` / ``REPRO_JOBS``);
* :mod:`repro.perf.report` -- the ``repro-sbm perf`` harness emitting
  ``BENCH_*.json`` trajectory records.

Attributes load on first access, like every package's: the scheduler's
hot path imports ``repro.perf.timers`` directly and never pays for the
corpus driver or the perf harness.

See ``docs/performance.md`` for the operator-facing guide.
"""

from pathlib import Path

from repro._lazy import lazy_exports

#: Where ``repro-sbm perf`` appends its trajectory series by default
#: (relative to the working directory, i.e. the repo root in CI).
DEFAULT_TRAJECTORY = Path("benchmarks") / "data" / "BENCH_trajectory.jsonl"

_EXPORTS = {
    "stage": "repro.perf.timers",
    "fork_available": "repro.perf.parallel",
    "resolve_jobs": "repro.perf.parallel",
    "results_digest": "repro.perf.parallel",
    "run_chunk": "repro.perf.parallel",
    "PerfReport": "repro.perf.report",
    "run_perf_report": "repro.perf.report",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
