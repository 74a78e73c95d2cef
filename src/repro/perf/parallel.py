"""The corpus driver's unit of work, run in-process or in fork workers.

The paper's evaluation schedules 100 benchmarks per parameter point and
3500+ overall; every case is independent.  :func:`run_chunk` is the one
unit of corpus work: compile a chunk of attempt seeds through the
vectorized generator, apply the ``accept`` filter, and schedule the kept
cases through the batched driver.
:func:`repro.experiments.sweeps.run_corpus` feeds it chunks through
:func:`chunk_runner`, which runs them in-process or on a fork pool.
Three properties are load bearing:

**Determinism.**  The driver draws one 48-bit case seed per *attempt*
from ``random.Random(master_seed)``, the stream
:func:`repro.synth.corpus.generate_cases` draws, and derives the
scheduler seed as ``case_seed & 0xFFFFFFFF``.  Chunks are consumed in
submission order and the filter keeps cases by position within each
chunk, so the accepted sequence is the serial one whatever the chunk
size or worker count.  :func:`results_digest` pins this.

**Graceful fallback.**  ``jobs=1``, a platform without ``fork``, an
unpicklable payload (e.g. a closure ``accept`` filter) or an active
provenance recorder runs the chunks in-process; callers never have to
care.

**One rule for collectors.**  A pool worker installs exactly the
collectors its parent has active -- span tracer, metrics registry --
and ships each one's state back with the chunk's results, so a parent
that collects nothing pays for no collection in its workers.

**Bounded dispatch.**  The driver never has more seeds in flight than
cases it still needs, so an unfiltered corpus draws exactly ``count``
seeds and no worker runs a case the result will not use.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro import kernels
from repro.core import batchrun
from repro.core.scheduler import ScheduleResult, SchedulerConfig, SyncCounts
from repro.io import result_summary
from repro.obs import metrics as obs_metrics
from repro.obs.provenance import current_recorder
from repro.obs.spans import collect_trace, current_tracer
from repro.perf.gctune import batched_gc
from repro.perf.timers import stage
from repro.synth import genvec
from repro.synth.corpus import BenchmarkCase
from repro.timing import Interval

if TYPE_CHECKING:
    from repro.experiments.sweeps import ExperimentPoint

__all__ = [
    "CompactResult",
    "chunk_runner",
    "digest_record",
    "fork_available",
    "resolve_jobs",
    "results_digest",
    "run_chunk",
]

#: Seeds per chunk at most: one paper-sized point.  The vectorized draw
#: amortizes its setup poorly below ~64 seeds, and the padded batch
#: tensors of a chunk stay a few MB at this size.
DEFAULT_BATCH = 100

#: Chunks in flight per worker: a pool run splits a point into this
#: many chunks per worker, so a worker that finishes early takes the
#: next chunk while the parent consumes results in order.
CHUNKS_IN_FLIGHT = 2


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve an effective worker count.

    ``None`` consults the ``REPRO_JOBS`` environment variable (absent or
    empty means serial).  ``0`` -- from either source -- means "all
    cores".  Anything else must be a positive integer.
    """
    if jobs is None:
        text = os.environ.get("REPRO_JOBS", "").strip()
        if not text:
            return 1
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {text!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX).  The pool uses
    fork so worker processes inherit already-imported modules; spawn-only
    platforms fall back to serial execution."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def run_chunk(
    point: "ExperimentPoint",
    seeds: Sequence[int],
    accept: Callable[[BenchmarkCase], bool] | None,
    compact: bool,
) -> "list[ScheduleResult | CompactResult]":
    """Compile, filter and schedule one chunk of attempt seeds.

    Returns the results of the cases ``accept`` keeps, in seed order.
    With ``compact`` they are :class:`CompactResult` rows, built while
    the full results are still at hand.
    """
    with batched_gc():
        with stage("generate"):
            cases = genvec.compile_cases(point.generator, seeds, point.timing)
            if accept is not None:
                cases = [case for case in cases if accept(case)]
        configs = [
            point.scheduler.with_(seed=case.seed & 0xFFFFFFFF) for case in cases
        ]
        with stage("schedule"):
            results = batchrun.schedule_cases(
                [case.dag for case in cases], configs
            )
            if compact:
                results = [CompactResult.of(result) for result in results]
    return results


def _run_worker(point, seeds, accept, compact, collectors):
    """Fork-pool entry point: :func:`run_chunk` under the parent's
    collectors.

    ``collectors`` says whether the parent has a (tracer, metrics
    registry) active.  Fork copied the parent's collectors, and records
    made into the copies would be lost, so the worker installs a fresh
    one for each the parent has active and none for the other.  Returns
    the chunk's results plus each collector's state (``None`` where not
    installed).
    """
    trace, metrics = collectors
    tracing = collect_trace() if trace else nullcontext()
    counting = obs_metrics.collect_metrics() if metrics else nullcontext()
    # The registry is installed before run_chunk's batched_gc so that
    # its GC hook finds it.
    with tracing as tracer, counting as registry:
        results = run_chunk(point, seeds, accept, compact)
    return results, (
        tracer.export_state() if tracer is not None else None,
        registry.as_dict() if registry is not None else None,
    )


def _absorb(shipped) -> None:
    """Merge one worker's collector states into the parent's."""
    trace_state, metrics = shipped
    if trace_state is not None:
        current_tracer().adopt(trace_state)
    if metrics is not None:
        obs_metrics.add_to_current(metrics)


def _poolable(
    point: "ExperimentPoint",
    accept: Callable[[BenchmarkCase], bool] | None,
    jobs: int,
) -> bool:
    if jobs <= 1 or point.count <= 0 or not fork_available():
        return False
    # Decisions are per-node records the workers would have to ship
    # whole; the batched scheduler already falls back to per-case
    # scheduling while a recorder watches, so record in-process.
    if current_recorder() is not None:
        return False
    try:  # closures / bound methods as ``accept`` cannot cross processes
        pickle.dumps((point, accept))
    except Exception:
        return False
    return True


@contextmanager
def chunk_runner(
    point: "ExperimentPoint",
    accept: Callable[[BenchmarkCase], bool] | None,
    jobs: int,
    compact: bool,
) -> Iterator[tuple[Callable, int, int]]:
    """Where the chunks of one corpus run execute.

    Yields ``(submit, chunk, window)``: ``submit(seeds)`` starts one
    chunk and returns a callable that waits for its results, ``chunk``
    bounds the seeds of one chunk and ``window`` the chunks in flight.

    With ``jobs > 1`` a fork pool runs chunks of
    ``ceil(count / (jobs * CHUNKS_IN_FLIGHT))`` seeds, at most
    :data:`DEFAULT_BATCH`, compacted when ``compact`` allows.  With one
    job, without ``fork``, under a provenance recorder, or when the
    point or ``accept`` does not pickle, chunks of
    :data:`DEFAULT_BATCH` run in-process as they are submitted, one at
    a time and never compacted.
    """
    if not _poolable(point, accept, jobs):

        def run_here(seeds):
            results = run_chunk(point, seeds, accept, False)
            return lambda: results

        yield run_here, DEFAULT_BATCH, 1
        return
    window = jobs * CHUNKS_IN_FLIGHT
    chunk = min(DEFAULT_BATCH, -(-point.count // window))
    collectors = (
        current_tracer() is not None,
        obs_metrics.current_registry() is not None,
    )
    # Load numpy (when the backend uses it) before the fork, so the
    # workers inherit it instead of each importing it.
    kernels.resolved_backend()
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:

        def submit(seeds):
            future = pool.submit(
                _run_worker, point, seeds, accept, compact, collectors
            )

            def wait():
                results, shipped = future.result()
                _absorb(shipped)
                return results

            return wait

        yield submit, chunk, window


class _CompactSchedule:
    """Stand-in exposing the one ``Schedule`` accessor reductions use."""

    __slots__ = ("_used",)

    def __init__(self, used: int) -> None:
        self._used = used

    def used_processors(self) -> int:
        return self._used


@dataclass(frozen=True, slots=True)
class CompactResult:
    """A :class:`ScheduleResult` reduced to what reductions read.

    Pool workers of a ``compact`` corpus run ship these back instead of
    pickling whole ``Schedule`` object graphs: the counts, makespan,
    processor usage, and the precomputed :func:`digest_record` --
    everything :func:`repro.metrics.stats.aggregate_results` and
    :func:`results_digest` consume, nothing else.
    """

    config: SchedulerConfig
    counts: SyncCounts
    makespan: Interval
    processors_used: int
    record: dict

    @classmethod
    def of(cls, result: ScheduleResult) -> "CompactResult":
        return cls(
            result.config,
            result.counts,
            result.makespan,
            result.schedule.used_processors(),
            digest_record(result),
        )

    @property
    def schedule(self) -> _CompactSchedule:
        return _CompactSchedule(self.processors_used)


def digest_record(result: "ScheduleResult | CompactResult") -> dict:
    """The record :func:`results_digest` hashes for one result.

    Compact results carry theirs precomputed (by this same function, in
    the worker that still held the full result), so full and compact
    digests agree byte for byte.
    """
    if isinstance(result, CompactResult):
        return result.record
    return {
        "summary": result_summary(result),
        "order": [str(node) for node in result.list_order],
        "resolutions": [
            [
                str(r.producer),
                str(r.consumer),
                r.kind.value,
                r.barrier.id if r.barrier is not None else None,
                r.dominator,
                r.secondary,
                r.via_optimal,
                r.merges,
            ]
            for r in result.resolutions
        ],
    }


def results_digest(
    results: Sequence["ScheduleResult | CompactResult"],
) -> str:
    """A stable digest of a result sequence, for determinism regression.

    Covers everything the experiments read off a result -- the summary
    record (counts, fractions, makespan), the list order, and every edge
    resolution -- so any behavioural drift between serial and parallel
    execution (or across refactors that must preserve paper numbers)
    changes the digest.
    """
    records = [digest_record(result) for result in results]
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
