"""The per-stage timers: stage blocks time into the active registry."""

from __future__ import annotations

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_point
from repro.obs.metrics import MetricsRegistry, add_to_current, collect_metrics
from repro.obs.prof import STAGE, profile_block
from repro.perf.parallel import fork_available
from repro.perf.report import run_perf_report, trajectory_entry
from repro.perf.timers import STAGES, stage
from repro.synth.generator import GeneratorConfig

POINT = ExperimentPoint(
    generator=GeneratorConfig(n_statements=15, n_variables=6),
    scheduler=SchedulerConfig(n_pes=4),
    count=4,
    master_seed=9,
)


def _stages(reg: MetricsRegistry) -> dict:
    return profile_block(reg)["stages"]


def _stage_registry(**stage_obs) -> MetricsRegistry:
    """A registry holding ``stage=[(wall, cpu), ...]`` stage timings, as
    ``stage()`` records them."""
    reg = MetricsRegistry()
    for name, samples in stage_obs.items():
        for wall, cpu in samples:
            reg.observe(STAGE + name + ".wall_s", wall)
            reg.observe(STAGE + name + ".cpu_s", cpu)
    return reg


class TestStageTimings:
    def test_dict_round_trip(self):
        with collect_metrics() as reg:
            with stage("generate"):
                pass
            with stage("merge"):
                pass
        back = MetricsRegistry.from_dict(reg.as_dict())
        assert _stages(back) == _stages(reg)
        assert set(_stages(back)) == {"generate", "merge"}

    def test_merge_from_accumulates(self):
        total = _stage_registry(schedule=[(1.0, 0.0)])
        total.merge_from(
            _stage_registry(schedule=[(0.5, 0.0)], simulate=[(2.0, 0.0)]).as_dict()
        )
        total.merge_from(_stage_registry(schedule=[(0.25, 0.0)]))
        stages = _stages(total)
        assert stages["schedule"]["count"] == 3
        assert stages["schedule"]["wall_s"] == pytest.approx(1.75)
        assert stages["simulate"]["wall_s"] == pytest.approx(2.0)


class TestCpuColumn:
    def test_dict_round_trip_keeps_cpu(self):
        reg = _stage_registry(schedule=[(2.0, 1.5)])
        back = _stages(MetricsRegistry.from_dict(reg.as_dict()))
        assert back == _stages(reg)
        assert back["schedule"]["cpu_s"] == pytest.approx(1.5)
        assert "merge" not in back

    def test_merge_from_sums_cpu(self):
        total = _stage_registry(schedule=[(1.0, 0.8)])
        total.merge_from(
            _stage_registry(schedule=[(0.5, 0.4)], merge=[(0.1, 0.1)]).as_dict()
        )
        stages = _stages(total)
        assert stages["schedule"]["cpu_s"] == pytest.approx(1.2)
        assert stages["merge"]["cpu_s"] == pytest.approx(0.1)
        assert stages["schedule"]["wall_s"] == pytest.approx(1.5)

    def test_stage_collects_cpu_alongside_wall(self):
        with collect_metrics() as reg:
            with stage("schedule"):
                sum(i * i for i in range(200_000))
        stat = _stages(reg)["schedule"]
        assert stat["count"] == 1
        assert stat["wall_s"] > 0.0
        assert stat["cpu_s"] > 0.0
        # CPU-bound loop: the two clocks agree to within scheduling noise.
        assert stat["cpu_s"] <= stat["wall_s"] * 3 + 0.05


class TestCollection:
    def test_stage_is_noop_without_collector(self):
        with stage("generate"):
            pass  # must not raise, must not require a registry or tracer

    def test_idle_stage_is_one_shared_noop(self):
        from repro.obs.spans import NOOP, current_tracer, span

        assert current_tracer() is None
        first = stage("schedule")
        assert stage("merge") is first is span("x") is NOOP
        with first:
            with stage("insert"):
                pass
        # ... and it recorded nothing into a registry installed later.
        with collect_metrics() as reg:
            pass
        assert reg.as_dict() == {"counters": {}, "histograms": {}}

    def test_unknown_stage_raises_at_the_call(self):
        with pytest.raises(ValueError, match="unknown timing stage"):
            stage("bogus")  # no ``with``: the call itself raises

    def test_stage_rejects_unknown_name(self):
        """A typo'd stage name must fail loudly, not silently time
        nothing."""
        with pytest.raises(ValueError, match="unknown timing stage"):
            with stage("compile"):
                pass
        # ... registry or not.
        with collect_metrics() as reg:
            with pytest.raises(ValueError, match="unknown timing stage"):
                with stage("typo"):
                    pass
        assert reg.as_dict() == {"counters": {}, "histograms": {}}

    def test_stage_opens_a_span_for_the_tracer(self):
        from repro.obs.spans import collect_trace

        with collect_trace() as tracer:
            with stage("generate"):
                with stage("schedule"):
                    pass
        names = {s.name: s for s in tracer.spans}
        assert names["schedule"].parent == names["generate"].id

    def test_stage_accumulates_into_collector(self):
        with collect_metrics() as reg:
            with stage("generate"):
                pass
            with stage("generate"):
                pass
        stages = _stages(reg)
        assert stages["generate"]["count"] == 2
        assert stages["generate"]["wall_s"] > 0.0
        assert "simulate" not in stages

    def test_collectors_nest_innermost_wins(self):
        with collect_metrics() as outer:
            with collect_metrics() as inner:
                with stage("schedule"):
                    pass
        assert _stages(inner)["schedule"]["count"] == 1
        assert "schedule" not in _stages(outer)

    def test_add_to_current(self):
        shipped = _stage_registry(simulate=[(1.0, 0.5)]).as_dict()
        add_to_current(shipped)  # no registry: silently dropped
        with collect_metrics() as reg:
            add_to_current(shipped)
        assert _stages(reg)["simulate"]["wall_s"] == pytest.approx(1.0)


#: Serial, and on a fork pool where the platform has one.
JOBS = [1] + ([2] if fork_available() else [])


def _assert_point_stages(reg) -> None:
    stages = _stages(reg)
    assert stages["generate"]["wall_s"] > 0.0
    assert stages["schedule"]["wall_s"] > 0.0
    # Insertion happens inside scheduling; nesting means the parts never
    # exceed the whole.
    assert stages["insert"]["wall_s"] <= stages["schedule"]["wall_s"]


class TestPipelineIntegration:
    def test_run_point_populates_timings(self):
        with collect_metrics() as reg:
            run_point(POINT, jobs=1)
        _assert_point_stages(reg)

    def test_run_point_credits_enclosing_collector(self):
        """The enclosing registry (the perf harness timing a whole sweep)
        sees the point's stage times when the point runs on a pool,
        through the workers' shipped registries."""
        with collect_metrics() as reg:
            run_point(POINT, jobs=JOBS[-1])
        _assert_point_stages(reg)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_perf_record_stages_from_profile(self, jobs):
        """The record's ``stages`` block: five stage walls plus their
        CPU seconds, all positive; with ``jobs=2`` the sweep's stage
        times reach the record only through the shipped profiles."""
        stages = run_perf_report(count=4, jobs=jobs).data["stages"]
        assert set(stages) == {*STAGES, "cpu"}
        for name in STAGES:
            assert stages[name] > 0.0, name
            assert stages["cpu"][name] > 0.0, name
        assert stages["insert"] <= stages["schedule"]

    @pytest.mark.parametrize("jobs", JOBS)
    def test_perf_record_profile_block(self, jobs):
        """The record's ``profile`` block keeps its keys and per-key
        entries, the ``metrics`` block holds no second copy of them, and
        the trajectory entry keeps the trimmed profile ``watch
        --explain`` reads."""
        data = run_perf_report(count=4, jobs=jobs).data
        profile = data["profile"]
        assert set(profile) == {
            "stages", "kernels", "stage_rss", "bytes", "peak_rss", "gc"
        }
        assert set(profile["gc"]) == {"pauses", "pause_s", "collected"}
        assert set(profile["stages"]) == set(STAGES)
        assert profile["kernels"]
        for table in ("stages", "kernels"):
            for key, stat in profile[table].items():
                assert set(stat) == {"count", "wall_s", "cpu_s", "max_s"}, key
                assert stat["count"] > 0, key
                assert 0.0 <= stat["max_s"] <= stat["wall_s"], key
        assert profile["peak_rss"] > 0
        assert not [
            name
            for table in data["metrics"].values()
            for name in table
            if name.startswith("prof.")
        ]
        trimmed = trajectory_entry(data)["profile"]
        assert set(trimmed) == {"kernels", "gc", "peak_rss"}
        assert trimmed["kernels"] == profile["kernels"]
        assert trimmed["gc"] == profile["gc"]
        assert trimmed["peak_rss"] == profile["peak_rss"]
