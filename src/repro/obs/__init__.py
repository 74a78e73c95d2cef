"""Observability for the scheduling pipeline: spans, metrics, provenance.

Three independent, contextvar-scoped collectors -- tracer, metrics
registry, provenance recorder -- all opt-in and zero-cost when no
subscriber is installed (and all hard-disabled by
``REPRO_OBS_DISABLE=1``), plus the resource accounts kept in the
registry and the progress stream ``perf --live`` asks for:

* :mod:`repro.obs.spans` -- hierarchical wall-clock span tracing of the
  five pipeline stages and their hot inner operations; exported as
  JSONL or Perfetto-loadable Chrome trace JSON
  (:mod:`repro.obs.export`);
* :mod:`repro.obs.metrics` -- named counters and histograms, merged
  across the parallel driver's worker processes; the one accumulator
  of a run's numbers;
* :mod:`repro.obs.prof` -- resource accounting into the registry:
  per-stage and per-kernel wall/CPU timings, peak-RSS and tensor byte
  accounts, GC pauses, the ``profile`` block derived from them, and
  folded-stack (flamegraph) export from a span trace;
* :mod:`repro.obs.progress` -- live heartbeat stream (cases/s, ETA)
  of a perf run, rendered as a TTY status line or JSONL; not a
  collector: the run is handed its meter;
* :mod:`repro.obs.provenance` -- machine-readable reasons for every
  assignment, barrier insertion and merge verdict, surfaced by
  ``repro-sbm explain`` (:mod:`repro.obs.explain` builds the report;
  imported directly, not from this package root, because it depends on
  ``repro.core``).

A fork-pool worker of the corpus driver installs exactly the tracer
and registry its parent has active and ships each back with its
results (:mod:`repro.perf.parallel`); a corpus run under a
provenance recorder stays in-process.

:mod:`repro.obs.logging` holds the package's logger hierarchy.

Everything exported here is stdlib-only so any pipeline module may
import it without cycles; see docs/observability.md for the full tour.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HistogramStat": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "collect_metrics": "repro.obs.metrics",
    "current_registry": "repro.obs.metrics",
    "inc": "repro.obs.metrics",
    "observe": "repro.obs.metrics",
    "folded_stacks": "repro.obs.prof",
    "track_gc": "repro.obs.prof",
    "write_folded": "repro.obs.prof",
    "JSONLSink": "repro.obs.progress",
    "ProgressMeter": "repro.obs.progress",
    "TTYStatusSink": "repro.obs.progress",
    "AssignmentDecision": "repro.obs.provenance",
    "BarrierDecision": "repro.obs.provenance",
    "MergeDecision": "repro.obs.provenance",
    "ProvenanceRecorder": "repro.obs.provenance",
    "collect_provenance": "repro.obs.provenance",
    "current_recorder": "repro.obs.provenance",
    "record_assignment": "repro.obs.provenance",
    "record_barrier": "repro.obs.provenance",
    "record_merge": "repro.obs.provenance",
    "Span": "repro.obs.spans",
    "SpanTracer": "repro.obs.spans",
    "TraceEvent": "repro.obs.spans",
    "collect_trace": "repro.obs.spans",
    "current_tracer": "repro.obs.spans",
    "event": "repro.obs.spans",
    "span": "repro.obs.spans",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
