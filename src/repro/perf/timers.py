"""Per-stage wall-clock and CPU timers for the evaluation pipeline.

The pipeline has five instrumented stages:

``generate``   synthetic-benchmark generation + compilation to a DAG
``schedule``   the whole list-scheduling pass (includes ``insert``)
``insert``     barrier insertion, step [6] placements (includes ``merge``)
``merge``      SBM barrier merging triggered by an insertion
``simulate``   cycle-accurate machine execution

A :func:`stage` block records into the active collectors: its wall and
CPU seconds into the metrics registry, under the ``prof.stage.*`` names
:mod:`repro.obs.prof` owns and derives a perf record's ``stages`` and
``profile`` blocks from, and a span of the same name into the
:class:`repro.obs.spans.SpanTracer`.  With a registry alone the block
is a :class:`repro.obs.prof.Timer`, as :func:`repro.kernels.timed`
returns; only a tracer needs a generator.  With neither installed
:func:`stage` returns the shared no-op :data:`repro.obs.spans.NOOP`: a
block costs two context-variable lookups and builds no context
manager, so the hot paths stay instrumented unconditionally.

Stages nest (``merge`` time is part of ``insert``, which is part of
``schedule``), so the stage times do not sum to wall time.  Pool
workers of the corpus driver ship their registry, stage times
included, back to the parent (see :mod:`repro.perf.parallel`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ContextManager, Iterator

from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.prof import STAGE, UNTIMED, Timer
from repro.obs.spans import NOOP, SpanTracer, current_tracer

__all__ = ["STAGES", "stage"]

#: Instrumented stage names, in pipeline order.
STAGES = ("generate", "schedule", "insert", "merge", "simulate")


def stage(name: str) -> ContextManager[None]:
    """Time the block under ``name`` into the active registry and open a
    span of that name under the active tracer.

    ``name`` must be one of :data:`STAGES` -- an unknown name raises
    at the call rather than silently timing a stage no report shows.
    With neither collector installed the shared no-op
    :data:`repro.obs.spans.NOOP` comes back.
    """
    if name not in STAGES:
        raise ValueError(f"unknown timing stage {name!r}")
    reg = current_registry()
    tracer = current_tracer()
    if tracer is None:
        return NOOP if reg is None else Timer(reg, STAGE + name)
    return _traced(name, reg, tracer)


@contextmanager
def _traced(
    name: str, reg: MetricsRegistry | None, tracer: SpanTracer
) -> Iterator[None]:
    sid = tracer.open(name)
    try:
        with Timer(reg, STAGE + name) if reg is not None else UNTIMED:
            yield
    finally:
        tracer.close(sid)
