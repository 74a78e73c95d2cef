"""Observability for the scheduling pipeline: spans, metrics, provenance.

Independent, contextvar-scoped collectors, all opt-in and
zero-cost when no subscriber is installed (and all hard-disabled by
``REPRO_OBS_DISABLE=1``):

* :mod:`repro.obs.spans` -- hierarchical wall-clock span tracing of the
  five pipeline stages and their hot inner operations; exported as
  JSONL or Perfetto-loadable Chrome trace JSON
  (:mod:`repro.obs.export`);
* :mod:`repro.obs.metrics` -- named counters and histograms, merged
  across the parallel driver's worker processes;
* :mod:`repro.obs.prof` -- continuous profiling and resource
  accounting: per-stage and per-kernel wall/CPU timings, peak-RSS and
  tensor byte accounts, GC pauses, and folded-stack (flamegraph)
  export from a span trace;
* :mod:`repro.obs.progress` -- live heartbeat stream (cases/s, ETA)
  for long corpus runs, rendered as a TTY status line or JSONL;
* :mod:`repro.obs.provenance` -- machine-readable reasons for every
  assignment, barrier insertion and merge verdict, surfaced by
  ``repro-sbm explain`` (:mod:`repro.obs.explain` builds the report;
  imported directly, not from this package root, because it depends on
  ``repro.core``).

A fork-pool worker of the corpus driver installs exactly the tracer,
registry and profiler its parent has active and ships each back with
its results (:mod:`repro.perf.parallel`); a corpus run under a
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
    "KernelStat": "repro.obs.prof",
    "Profiler": "repro.obs.prof",
    "collect_profile": "repro.obs.prof",
    "current_profiler": "repro.obs.prof",
    "folded_stacks": "repro.obs.prof",
    "track_gc": "repro.obs.prof",
    "write_folded": "repro.obs.prof",
    "JSONLSink": "repro.obs.progress",
    "ProgressMeter": "repro.obs.progress",
    "TTYStatusSink": "repro.obs.progress",
    "collect_progress": "repro.obs.progress",
    "current_meter": "repro.obs.progress",
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

__all__ = [
    "HistogramStat",
    "MetricsRegistry",
    "collect_metrics",
    "current_registry",
    "inc",
    "observe",
    "KernelStat",
    "Profiler",
    "collect_profile",
    "current_profiler",
    "folded_stacks",
    "track_gc",
    "write_folded",
    "JSONLSink",
    "ProgressMeter",
    "TTYStatusSink",
    "collect_progress",
    "current_meter",
    "AssignmentDecision",
    "BarrierDecision",
    "MergeDecision",
    "ProvenanceRecorder",
    "collect_provenance",
    "current_recorder",
    "record_assignment",
    "record_barrier",
    "record_merge",
    "Span",
    "SpanTracer",
    "TraceEvent",
    "collect_trace",
    "current_tracer",
    "event",
    "span",
]
