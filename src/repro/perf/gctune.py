"""Garbage-collector tuning for the batched corpus pipeline.

The cyclic collector's generation-0 threshold (700 allocations) was
tuned for interactive programs, not for a pipeline that materializes a
hundred schedules -- each a dense object graph of streams, barriers,
and caches -- while the vectorized generator churns through thousands
of short-lived numpy temporaries.  Every ~700 allocations the collector
re-walks the *live* schedules looking for cycles it will not find,
and those pauses land inside whatever ``stage(...)`` happens to be
open, dwarfing the stage's real work at small batch sizes.

:func:`batched_gc` raises the generation-0 threshold for the duration
of a corpus batch so collections run a few times per corpus instead of
thousands of times.  Collection is deferred, never lost: the original
thresholds are restored on exit and the next allocation burst collects
as usual.  Reference-counted (acyclic) garbage is unaffected either
way.  Results are bit-identical -- collector scheduling has no
observable effect on the schedules.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

from repro.obs.prof import track_gc

__all__ = ["batched_gc"]

#: Generation-0 allocation threshold while a corpus batch runs.  At
#: ~100k allocations between scans a paper-sized point triggers a
#: handful of collections instead of thousands; the cyclic-garbage
#: backlog between scans stays a few MB at most.
BATCH_GEN0_THRESHOLD = 100_000


@contextmanager
def batched_gc() -> Iterator[None]:
    """Defer cyclic collection while a corpus batch is processed.

    Nests cleanly (restores whatever thresholds it found), and is a
    no-op when the collector is disabled entirely.  When a metrics
    registry is active (:func:`repro.obs.metrics.collect_metrics`) the
    collections that *do* run inside the batch are recorded as GC
    pauses (:func:`repro.obs.prof.track_gc`).
    """
    if not gc.isenabled():
        yield
        return
    old = gc.get_threshold()
    gc.set_threshold(BATCH_GEN0_THRESHOLD, old[1], old[2])
    try:
        with track_gc():
            yield
    finally:
        gc.set_threshold(*old)
