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
  accounting: per-kernel wall/CPU timings at the dispatch boundary,
  peak-RSS and tensor byte accounts, GC pauses, and folded-stack
  (flamegraph) export from a span trace;
* :mod:`repro.obs.progress` -- live heartbeat stream (cases/s, ETA)
  for long corpus runs, rendered as a TTY status line or JSONL;
* :mod:`repro.obs.provenance` -- machine-readable reasons for every
  assignment, barrier insertion and merge verdict, surfaced by
  ``repro-sbm explain`` (:mod:`repro.obs.explain` builds the report;
  imported directly, not from this package root, because it depends on
  ``repro.core``).

:mod:`repro.obs.logging` holds the package's logger hierarchy.

Everything exported here is stdlib-only so any pipeline module may
import it without cycles; see docs/observability.md for the full tour.
"""

from repro.obs.metrics import (
    HistogramStat,
    MetricsRegistry,
    collect_metrics,
    current_registry,
    inc,
    observe,
)
from repro.obs.prof import (
    KernelStat,
    Profiler,
    collect_profile,
    current_profiler,
    folded_stacks,
    track_gc,
    write_folded,
)
from repro.obs.progress import (
    JSONLSink,
    ProgressMeter,
    TTYStatusSink,
    collect_progress,
    current_meter,
)
from repro.obs.provenance import (
    AssignmentDecision,
    BarrierDecision,
    MergeDecision,
    ProvenanceRecorder,
    collect_provenance,
    current_recorder,
    record_assignment,
    record_barrier,
    record_merge,
)
from repro.obs.spans import (
    Span,
    SpanTracer,
    TraceEvent,
    collect_trace,
    current_tracer,
    event,
    span,
)

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
