"""Resource accounting into the metrics registry: kernel and stage
timings, memory and GC accounts, the ``profile`` block derived from
them, folded-stack export, and -- the merge contract the parallel
drivers rely on -- a derived block that does not depend on the order
worker registries are folded in."""

from __future__ import annotations

import gc

import pytest

from repro import kernels
from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs.metrics import (
    MetricsRegistry,
    add_to_current,
    collect_metrics,
    current_registry,
)
from repro.obs.prof import (
    BYTES,
    GC_COLLECTED,
    GC_PAUSE,
    KERNEL,
    PEAK_RSS,
    STAGE,
    UNTIMED,
    folded_stacks,
    metrics_block,
    profile_block,
    rss_bytes,
    sample_rss,
    track_gc,
    write_folded,
)
from repro.obs.spans import collect_trace
from repro.perf.gctune import batched_gc
from repro.perf.parallel import _run_worker, fork_available
from repro.perf.timers import stage
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


def _time(reg: MetricsRegistry, key: str, wall: float, cpu: float) -> None:
    """One timing observation, as ``prof.Timer`` records it."""
    reg.observe(key + ".wall_s", wall)
    reg.observe(key + ".cpu_s", cpu)


def _registry(**kernel_obs) -> MetricsRegistry:
    """A registry pre-loaded with ``key=[(wall, cpu), ...]`` kernel timings."""
    reg = MetricsRegistry()
    for key, samples in kernel_obs.items():
        for wall, cpu in samples:
            _time(reg, KERNEL + key, wall, cpu)
    return reg


class TestKernelStat:
    """A profile block's per-key entry: count, wall, CPU and max seconds."""

    def test_observe_accumulates(self):
        reg = _registry(**{"assign.numpy": [(0.5, 0.4), (1.5, 1.0)]})
        stat = profile_block(reg)["kernels"]["assign.numpy"]
        assert stat["count"] == 2
        assert stat["wall_s"] == pytest.approx(2.0)
        assert stat["cpu_s"] == pytest.approx(1.4)
        assert stat["max_s"] == pytest.approx(1.5)

    def test_dict_round_trip(self):
        """The registry's wire form carries every entry of the block."""
        reg = _registry(**{"assign.numpy": [(1.25, 1.0)], "batch.python": [(0.5, 0.5)]})
        back = MetricsRegistry.from_dict(reg.as_dict())
        assert profile_block(back) == profile_block(reg)


class TestProfilerMerge:
    """Worker registries must fold associatively and commutatively: the
    parent's derived profile cannot depend on chunk completion order."""

    def _parts(self) -> list[MetricsRegistry]:
        a = _registry(**{"assign.numpy": [(0.1, 0.1), (0.3, 0.2)]})
        _time(a, STAGE + "schedule", 0.5, 0.4)
        a.inc(BYTES + "genvec.drawn", 4096)
        a.observe(PEAK_RSS, 500)
        a.observe(GC_PAUSE, 0.01)
        a.inc(GC_COLLECTED, 50)
        b = _registry(
            **{"assign.numpy": [(0.2, 0.1)], "genvec.python": [(0.05, 0.05)]}
        )
        _time(b, STAGE + "schedule", 0.25, 0.25)
        _time(b, STAGE + "generate", 0.125, 0.1)
        b.observe(PEAK_RSS, 900)
        c = _registry(**{"genvec.python": [(0.5, 0.4)]})
        c.inc(BYTES + "genvec.drawn", 1000)
        c.inc(BYTES + "batch.tensors", 2000)
        c.observe(PEAK_RSS, 700)
        c.observe(GC_PAUSE, 0.02)
        c.inc(GC_COLLECTED, 10)
        return [a, b, c]

    def test_merge_order_invariance(self):
        import itertools

        reference = None
        for order in itertools.permutations(self._parts()):
            total = MetricsRegistry()
            for part in order:
                total.merge_from(part)
            if reference is None:
                reference = profile_block(total)
            else:
                assert profile_block(total) == reference

    def test_merge_associativity(self):
        parts = self._parts()
        left = MetricsRegistry()
        for p in parts:
            left.merge_from(p)
        bc = MetricsRegistry()
        bc.merge_from(parts[1])
        bc.merge_from(parts[2])
        right = MetricsRegistry()
        right.merge_from(parts[0])
        right.merge_from(bc)
        assert profile_block(left) == profile_block(right)

    def test_merge_from_mapping_matches_object(self):
        """The wire form (``as_dict``, what workers actually ship) must
        merge identically to the live object."""
        parts = self._parts()
        via_obj = MetricsRegistry()
        via_map = MetricsRegistry()
        for p in parts:
            via_obj.merge_from(p)
            via_map.merge_from(p.as_dict())
        assert profile_block(via_obj) == profile_block(via_map)

    def test_merge_semantics(self):
        total = MetricsRegistry()
        for p in self._parts():
            total.merge_from(p)
        profile = profile_block(total)
        kernel = profile["kernels"]["assign.numpy"]
        assert kernel["count"] == 3
        assert kernel["wall_s"] == pytest.approx(0.6)
        assert kernel["max_s"] == pytest.approx(0.3)
        stages = profile["stages"]
        assert stages["schedule"]["count"] == 2
        assert stages["schedule"]["wall_s"] == pytest.approx(0.75)
        assert stages["schedule"]["cpu_s"] == pytest.approx(0.65)
        assert stages["generate"]["max_s"] == pytest.approx(0.125)
        assert profile["bytes"] == {"genvec.drawn": 5096, "batch.tensors": 2000}
        assert profile["peak_rss"] == 900  # max-merge, not sum
        assert profile["gc"]["pauses"] == 2
        assert profile["gc"]["pause_s"] == pytest.approx(0.03)
        assert profile["gc"]["collected"] == 60

    def test_dict_round_trip(self):
        total = MetricsRegistry()
        for p in self._parts():
            total.merge_from(p)
        back = MetricsRegistry.from_dict(total.as_dict())
        assert profile_block(back) == profile_block(total)

    def test_merge_empty_identity(self):
        loaded = self._parts()[0]
        snapshot = profile_block(loaded)
        loaded.merge_from(MetricsRegistry())
        assert profile_block(loaded) == snapshot
        empty = MetricsRegistry()
        empty.merge_from(loaded)
        assert profile_block(empty) == snapshot


class TestBlocks:
    def test_blocks_split_the_registry(self):
        """Each entry lands in exactly one block: the profile's entries
        leave the metrics block, the registry's others stay."""
        reg = _registry(**{"assign.python": [(0.5, 0.25)]})
        reg.inc(BYTES + "genvec.drawn", 64)
        reg.observe(PEAK_RSS, 1000)
        reg.inc("merge.verdict.merged", 2)
        reg.observe("views.refire_cone", 3)
        assert metrics_block(reg) == {
            "counters": {"merge.verdict.merged": 2},
            "histograms": {
                "views.refire_cone": {"count": 1, "total": 3, "min": 3, "max": 3}
            },
        }
        profile = profile_block(reg)
        assert set(profile["kernels"]) == {"assign.python"}
        assert profile["bytes"] == {"genvec.drawn": 64}
        assert profile["peak_rss"] == 1000

    def test_empty_registry_gives_zeros(self):
        assert profile_block(MetricsRegistry()) == {
            "stages": {},
            "kernels": {},
            "bytes": {},
            "peak_rss": 0,
            "gc": {"pauses": 0, "pause_s": 0.0, "collected": 0},
        }


class TestCollection:
    def test_noop_without_profiler(self):
        assert current_registry() is None
        with kernels.timed("assign", "python"):
            pass  # must not raise, must not record anywhere
        assert kernels.timed("assign", "python") is UNTIMED

    def test_nesting_innermost_wins(self):
        with collect_metrics() as outer:
            with collect_metrics() as inner:
                with kernels.timed("assign", "python"):
                    pass
            assert profile_block(inner)["kernels"]["assign.python"]["count"] == 1
            assert "assign.python" not in profile_block(outer)["kernels"]

    def test_timed_records_at_dispatch(self):
        with collect_metrics() as reg:
            with kernels.timed("assign", "python"):
                sum(range(1000))
        stat = profile_block(reg)["kernels"]["assign.python"]
        assert stat["count"] == 1
        assert stat["wall_s"] > 0.0
        assert stat["max_s"] == pytest.approx(stat["wall_s"])
        assert reg.counter("kernels.calls.assign.python") == 1

    def test_rss_accounting(self):
        """Peak RSS is sampled once, where a registry's work ends: a
        stage block takes no sample, a pool worker samples before it
        ships its registry, and ``sample_rss`` records the peak."""
        assert rss_bytes() > 0
        with collect_metrics() as reg:
            with stage("generate"):
                pass
        assert profile_block(reg)["peak_rss"] == 0
        _, (_, shipped) = _run_worker(POINT, [1, 2], None, True, (False, True))
        peak = profile_block(MetricsRegistry.from_dict(shipped))["peak_rss"]
        assert 0 < peak <= rss_bytes()
        sampled = sample_rss(reg)
        assert profile_block(reg)["peak_rss"] == sampled >= peak

    def test_track_gc_records_pauses(self):
        with collect_metrics() as reg:
            with track_gc():
                gc.collect()
        assert profile_block(reg)["gc"]["pauses"] >= 1
        assert profile_block(reg)["gc"]["pause_s"] >= 0.0

    def test_track_gc_noop_without_profiler(self):
        before = len(gc.callbacks)
        with track_gc():
            gc.collect()
        assert len(gc.callbacks) == before

    def test_batched_gc_feeds_profiler(self):
        """The corpus drivers' GC regime reports its pauses."""
        with collect_metrics() as reg:
            with batched_gc():
                junk = [[i] for i in range(200_000)]
                del junk
                gc.collect()
        assert profile_block(reg)["gc"]["pauses"] >= 1

    def test_add_to_current(self):
        worker = _registry(**{"k.numpy": [(1.0, 0.9)]})
        _time(worker, STAGE + "merge", 0.5, 0.5)
        shipped = worker.as_dict()
        with collect_metrics() as reg:
            add_to_current(shipped)
        profile = profile_block(reg)
        assert profile["kernels"]["k.numpy"]["count"] == 1
        assert profile["stages"]["merge"]["wall_s"] == pytest.approx(0.5)
        add_to_current(shipped)  # no active registry: silent no-op

    def test_corpus_run_populates_kernel_timings(self):
        with collect_metrics() as reg:
            run_corpus(POINT, jobs=1)
        kernel_table = profile_block(reg)["kernels"]
        assert kernel_table, "dispatch boundary must record kernel timings"
        assert any(stat["count"] > 0 for stat in kernel_table.values())
        total_wall = sum(s["wall_s"] for s in kernel_table.values())
        assert total_wall > 0.0


@needs_fork
class TestWorkerProfileShipping:
    """Pool workers ship their registries home, full or compact; the
    parent's totals cover the serial run's regardless of completion
    order."""

    def test_pool_workers_ship_profiles(self):
        with collect_metrics() as serial:
            run_corpus(POINT, jobs=1)
        with collect_metrics() as parallel:
            run_corpus(POINT, jobs=2)
        parallel_kernels = profile_block(parallel)["kernels"]
        serial_kernels = profile_block(serial)["kernels"]
        assert parallel_kernels, "worker timings must be folded into parent"
        # Chunking changes how many times each kernel dispatches (one
        # batch call per chunk, thresholds per chunk size), so exact
        # call counts are not comparable -- but both runs did real work
        # on the same kernel families.
        assert sum(s["count"] for s in parallel_kernels.values()) > 0
        assert sum(s["count"] for s in serial_kernels.values()) > 0
        assert set(parallel_kernels) & set(serial_kernels)

    def test_shm_workers_ship_profiles(self):
        point = POINT.with_(count=16)
        with collect_metrics() as reg:
            run_corpus(point, jobs=2, compact=True)
        kernel_table = profile_block(reg)["kernels"]
        assert kernel_table
        assert sum(s["count"] for s in kernel_table.values()) > 0
        assert profile_block(reg)["peak_rss"] > 0


class TestFoldedStacks:
    def test_self_time_and_nesting(self):
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
