"""Performance layer: parallel corpus execution, result caching, timers.

The paper's evaluation sweeps 3500+ synthetic basic blocks; this package
makes that affordable at full scale:

* :mod:`repro.perf.timers` -- per-stage wall-clock accumulators
  (generate / schedule / insert / merge / simulate) that the pipeline
  reports through :class:`~repro.metrics.stats.CorpusStats`;
* :mod:`repro.perf.parallel` -- the corpus chunk runner behind
  :func:`~repro.experiments.sweeps.run_corpus`, in-process or on a fork
  pool, bit-identical either way (``--jobs`` / ``REPRO_JOBS``);
* :mod:`repro.perf.cache` -- an on-disk content-addressed cache of
  corpus statistics keyed by the experiment point and package version;
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
    "StageTimings": "repro.perf.timers",
    "collect_timings": "repro.perf.timers",
    "stage": "repro.perf.timers",
    "fork_available": "repro.perf.parallel",
    "resolve_jobs": "repro.perf.parallel",
    "results_digest": "repro.perf.parallel",
    "run_chunk": "repro.perf.parallel",
    "cache_dir": "repro.perf.cache",
    "resolve_cache": "repro.perf.cache",
    "point_cache_key": "repro.perf.cache",
    "load_point_stats": "repro.perf.cache",
    "store_point_stats": "repro.perf.cache",
    "PerfReport": "repro.perf.report",
    "run_perf_report": "repro.perf.report",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
