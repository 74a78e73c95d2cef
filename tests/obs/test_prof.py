"""The continuous-profiling layer: kernel timing histograms, memory and
GC accounting, folded-stack export, and -- the merge contract the
parallel drivers rely on -- order-invariant folding of worker profiles,
mirroring ``tests/obs/test_metrics.py`` for the registry."""

from __future__ import annotations

import gc

import pytest

from repro import kernels
from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs.prof import (
    KernelStat,
    Profiler,
    add_to_current,
    collect_profile,
    current_profiler,
    folded_stacks,
    rss_bytes,
    track_gc,
    write_folded,
)
from repro.obs.spans import collect_trace
from repro.perf.gctune import batched_gc
from repro.perf.parallel import fork_available
from repro.synth.generator import GeneratorConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)

POINT = ExperimentPoint(
    generator=GeneratorConfig(n_statements=15, n_variables=6),
    scheduler=SchedulerConfig(n_pes=4),
    count=8,
    master_seed=3,
)


def _profile(**kernel_obs) -> Profiler:
    """A profiler pre-loaded with ``key=[(wall, cpu), ...]`` samples."""
    prof = Profiler()
    for key, samples in kernel_obs.items():
        for wall, cpu in samples:
            prof.record_kernel(key, wall, cpu)
    return prof


class TestKernelStat:
    def test_observe_accumulates(self):
        stat = KernelStat()
        stat.observe(0.5, 0.4)
        stat.observe(1.5, 1.0)
        assert stat.count == 2
        assert stat.wall_s == pytest.approx(2.0)
        assert stat.cpu_s == pytest.approx(1.4)
        assert stat.max_s == pytest.approx(1.5)
        assert stat.mean_s == pytest.approx(1.0)

    def test_dict_round_trip(self):
        stat = KernelStat(count=3, wall_s=1.25, cpu_s=1.0, max_s=0.75)
        assert KernelStat.from_dict(stat.as_dict()) == stat


class TestProfilerMerge:
    """Worker profiles must fold associatively and commutatively: the
    parent's totals cannot depend on chunk completion order."""

    def _parts(self) -> list[Profiler]:
        a = _profile(**{"assign.numpy": [(0.1, 0.1), (0.3, 0.2)]})
        a.record_stage("schedule", 0.5, 0.4)
        a.record_stage_rss("schedule", 1024)
        a.add_bytes("genvec.drawn", 4096)
        a.peak_rss = 500
        a.record_gc_pause(0.01, 50)
        b = _profile(
            **{"assign.numpy": [(0.2, 0.1)], "genvec.python": [(0.05, 0.05)]}
        )
        b.record_stage("schedule", 0.25, 0.25)
        b.record_stage("generate", 0.125, 0.1)
        b.record_stage_rss("schedule", 512)
        b.record_stage_rss("generate", 256)
        b.peak_rss = 900
        c = _profile(**{"genvec.python": [(0.5, 0.4)]})
        c.add_bytes("genvec.drawn", 1000)
        c.add_bytes("batch.tensors", 2000)
        c.peak_rss = 700
        c.record_gc_pause(0.02, 10)
        return [a, b, c]

    def test_merge_order_invariance(self):
        import itertools

        reference = None
        for order in itertools.permutations(self._parts()):
            total = Profiler()
            for part in order:
                total.merge_from(part)
            if reference is None:
                reference = total.as_dict()
            else:
                assert total.as_dict() == reference

    def test_merge_associativity(self):
        parts = self._parts()
        left = Profiler()
        for p in parts:
            left.merge_from(p)
        bc = Profiler()
        bc.merge_from(parts[1])
        bc.merge_from(parts[2])
        right = Profiler()
        right.merge_from(parts[0])
        right.merge_from(bc)
        assert left.as_dict() == right.as_dict()

    def test_merge_from_mapping_matches_object(self):
        """The wire form (``as_dict``, what workers actually ship) must
        merge identically to the live object."""
        parts = self._parts()
        via_obj = Profiler()
        via_map = Profiler()
        for p in parts:
            via_obj.merge_from(p)
            via_map.merge_from(p.as_dict())
        assert via_obj.as_dict() == via_map.as_dict()

    def test_merge_semantics(self):
        total = Profiler()
        for p in self._parts():
            total.merge_from(p)
        assert total.kernels["assign.numpy"].count == 3
        assert total.kernels["assign.numpy"].wall_s == pytest.approx(0.6)
        assert total.kernels["assign.numpy"].max_s == pytest.approx(0.3)
        assert total.stages["schedule"].count == 2
        assert total.stages["schedule"].wall_s == pytest.approx(0.75)
        assert total.stages["schedule"].cpu_s == pytest.approx(0.65)
        assert total.stages["generate"].max_s == pytest.approx(0.125)
        assert total.stage_rss == {"schedule": 1536, "generate": 256}
        assert total.bytes == {"genvec.drawn": 5096, "batch.tensors": 2000}
        assert total.peak_rss == 900  # max-merge, not sum
        assert total.gc_pauses == 2
        assert total.gc_pause_s == pytest.approx(0.03)
        assert total.gc_collected == 60

    def test_dict_round_trip(self):
        total = Profiler()
        for p in self._parts():
            total.merge_from(p)
        assert Profiler.from_dict(total.as_dict()).as_dict() == total.as_dict()

    def test_merge_empty_identity(self):
        loaded = self._parts()[0]
        snapshot = loaded.as_dict()
        loaded.merge_from(Profiler())
        assert loaded.as_dict() == snapshot
        empty = Profiler()
        empty.merge_from(loaded)
        assert empty.as_dict() == snapshot


class TestCollection:
    def test_noop_without_profiler(self):
        assert current_profiler() is None
        with kernels.timed("assign", "python"):
            pass  # must not raise, must not record anywhere

    def test_nesting_innermost_wins(self):
        with collect_profile() as outer:
            with collect_profile() as inner:
                current_profiler().record_kernel("k.python", 0.1, 0.1)
            assert inner.kernels["k.python"].count == 1
            assert "k.python" not in outer.kernels

    def test_timed_records_at_dispatch(self):
        with collect_profile() as prof:
            with kernels.timed("assign", "python"):
                sum(range(1000))
        stat = prof.kernels["assign.python"]
        assert stat.count == 1
        assert stat.wall_s > 0.0
        assert stat.max_s == pytest.approx(stat.wall_s)

    def test_rss_accounting(self):
        assert rss_bytes() > 0
        with collect_profile() as prof:
            pass
        assert prof.peak_rss >= rss_bytes() - 1024  # sampled on exit

    def test_track_gc_records_pauses(self):
        with collect_profile() as prof:
            with track_gc():
                gc.collect()
        assert prof.gc_pauses >= 1
        assert prof.gc_pause_s >= 0.0

    def test_track_gc_noop_without_profiler(self):
        before = len(gc.callbacks)
        with track_gc():
            gc.collect()
        assert len(gc.callbacks) == before

    def test_batched_gc_feeds_profiler(self):
        """The corpus drivers' GC regime reports its pauses."""
        with collect_profile() as prof:
            with batched_gc():
                junk = [[i] for i in range(200_000)]
                del junk
                gc.collect()
        assert prof.gc_pauses >= 1

    def test_add_to_current(self):
        worker = _profile(**{"k.numpy": [(1.0, 0.9)]})
        worker.record_stage("merge", 0.5, 0.5)
        shipped = worker.as_dict()
        with collect_profile() as prof:
            add_to_current(shipped)
        assert prof.kernels["k.numpy"].count == 1
        assert prof.stages["merge"].wall_s == pytest.approx(0.5)
        add_to_current(shipped)  # no active profiler: silent no-op

    def test_disable_kill_switch(self, monkeypatch):
        monkeypatch.setattr("repro.obs.prof.DISABLED", True)
        with collect_profile():
            assert current_profiler() is None
            with kernels.timed("assign", "python"):
                pass

    def test_corpus_run_populates_kernel_timings(self):
        with collect_profile() as prof:
            run_corpus(POINT, jobs=1)
        assert prof.kernels, "dispatch boundary must record kernel timings"
        assert any(stat.count > 0 for stat in prof.kernels.values())
        total_wall = sum(s.wall_s for s in prof.kernels.values())
        assert total_wall > 0.0


@needs_fork
class TestWorkerProfileShipping:
    """Pool workers ship their profiles home, full or compact; the parent's
    totals cover the serial run's regardless of completion order."""

    def test_pool_workers_ship_profiles(self):
        with collect_profile() as serial:
            run_corpus(POINT, jobs=1)
        with collect_profile() as parallel:
            run_corpus(POINT, jobs=2)
        assert parallel.kernels, "worker profiles must be folded into parent"
        # Chunking changes how many times each kernel dispatches (one
        # batch call per chunk, thresholds per chunk size), so exact
        # call counts are not comparable -- but both runs did real work
        # on the same kernel families.
        assert sum(s.count for s in parallel.kernels.values()) > 0
        assert sum(s.count for s in serial.kernels.values()) > 0
        assert set(parallel.kernels) & set(serial.kernels)

    def test_shm_workers_ship_profiles(self):
        point = POINT.with_(count=16)
        with collect_profile() as prof:
            run_corpus(point, jobs=2, compact=True)
        assert prof.kernels
        assert sum(s.count for s in prof.kernels.values()) > 0


class TestFoldedStacks:
    def test_self_time_and_nesting(self):
        from repro.perf.timers import stage

        with collect_trace() as tracer:
            with stage("schedule"):
                with stage("insert"):
                    sum(range(50_000))
        lines = folded_stacks(tracer)
        stacks = {line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1]) for line in lines}
        assert "schedule;insert" in stacks
        assert all(count >= 1 for count in stacks.values())
        # Self time, not inclusive: the parent's count excludes the child's.
        total_us = sum(stacks.values())
        root = next(s for s in tracer.spans if s.name == "schedule")
        assert total_us <= root.dur_us * 1.5 + 2

    def test_write_folded(self, tmp_path):
        from repro.perf.timers import stage

        with collect_trace() as tracer:
            with stage("generate"):
                sum(range(10_000))
        path = write_folded(tracer, tmp_path / "out.folded")
        text = path.read_text()
        assert text.endswith("\n")
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack
            assert int(count) >= 1

    def test_empty_tracer(self, tmp_path):
        with collect_trace() as tracer:
            pass
        assert folded_stacks(tracer) == []
        path = write_folded(tracer, tmp_path / "empty.folded")
        assert path.read_text() == ""

    @needs_fork
    def test_worker_spans_prefixed(self):
        with collect_trace() as tracer:
            run_corpus(POINT, jobs=2)
        lines = folded_stacks(tracer)
        assert any(line.startswith("worker:") for line in lines), (
            "adopted worker spans must be distinguishable in the flamegraph"
        )
