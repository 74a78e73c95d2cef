"""The per-stage timers: stage blocks time into the active profiler."""

from __future__ import annotations

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_point
from repro.obs.prof import Profiler, add_to_current, collect_profile
from repro.perf.parallel import fork_available
from repro.perf.report import run_perf_report
from repro.perf.timers import STAGES, stage
from repro.synth.generator import GeneratorConfig

POINT = ExperimentPoint(
    generator=GeneratorConfig(n_statements=15, n_variables=6),
    scheduler=SchedulerConfig(n_pes=4),
    count=4,
    master_seed=9,
)


class TestStageTimings:
    def test_dict_round_trip(self):
        with collect_profile() as prof:
            with stage("generate"):
                pass
            with stage("merge"):
                pass
        back = Profiler.from_dict(prof.as_dict())
        assert back.stages == prof.stages
        assert set(back.stages) == {"generate", "merge"}

    def test_merge_from_accumulates(self):
        total = Profiler()
        total.record_stage("schedule", 1.0, 0.0)
        total.merge_from(
            {"stages": {"schedule": {"count": 1, "wall_s": 0.5},
                        "simulate": {"count": 1, "wall_s": 2.0}}}
        )
        other = Profiler()
        other.record_stage("schedule", 0.25, 0.0)
        total.merge_from(other)
        assert total.stages["schedule"].count == 3
        assert total.stages["schedule"].wall_s == pytest.approx(1.75)
        assert total.stages["simulate"].wall_s == pytest.approx(2.0)


class TestCpuColumn:
    def test_dict_round_trip_keeps_cpu(self):
        prof = Profiler()
        prof.record_stage("schedule", 2.0, 1.5)
        back = Profiler.from_dict(prof.as_dict())
        assert back.stages == prof.stages
        assert back.stages["schedule"].cpu_s == pytest.approx(1.5)
        assert "merge" not in back.stages

    def test_merge_from_sums_cpu(self):
        total = Profiler()
        total.record_stage("schedule", 1.0, 0.8)
        total.merge_from(
            {"stages": {"schedule": {"count": 1, "wall_s": 0.5, "cpu_s": 0.4},
                        "merge": {"count": 1, "wall_s": 0.1, "cpu_s": 0.1}}}
        )
        assert total.stages["schedule"].cpu_s == pytest.approx(1.2)
        assert total.stages["merge"].cpu_s == pytest.approx(0.1)
        assert total.stages["schedule"].wall_s == pytest.approx(1.5)

    def test_stage_collects_cpu_alongside_wall(self):
        with collect_profile() as prof:
            with stage("schedule"):
                sum(i * i for i in range(200_000))
        stat = prof.stages["schedule"]
        assert stat.count == 1
        assert stat.wall_s > 0.0
        assert stat.cpu_s > 0.0
        # CPU-bound loop: the two clocks agree to within scheduling noise.
        assert stat.cpu_s <= stat.wall_s * 3 + 0.05


class TestCollection:
    def test_stage_is_noop_without_collector(self):
        with stage("generate"):
            pass  # must not raise, must not require a profiler or tracer

    def test_stage_rejects_unknown_name(self):
        """A typo'd stage name must fail loudly, not silently time
        nothing."""
        with pytest.raises(ValueError, match="unknown timing stage"):
            with stage("compile"):
                pass
        # ... profiler or not.
        with collect_profile() as prof:
            with pytest.raises(ValueError, match="unknown timing stage"):
                with stage("typo"):
                    pass
        assert prof.stages == {}

    def test_stage_opens_a_span_for_the_tracer(self):
        from repro.obs.spans import collect_trace

        with collect_trace() as tracer:
            with stage("generate"):
                with stage("schedule"):
                    pass
        names = {s.name: s for s in tracer.spans}
        assert names["schedule"].parent == names["generate"].id

    def test_stage_accumulates_into_collector(self):
        with collect_profile() as prof:
            with stage("generate"):
                pass
            with stage("generate"):
                pass
        assert prof.stages["generate"].count == 2
        assert prof.stages["generate"].wall_s > 0.0
        assert "simulate" not in prof.stages

    def test_collectors_nest_innermost_wins(self):
        with collect_profile() as outer:
            with collect_profile() as inner:
                with stage("schedule"):
                    pass
        assert inner.stages["schedule"].count == 1
        assert "schedule" not in outer.stages

    def test_add_to_current(self):
        shipped = {"stages": {"simulate": {"count": 1, "wall_s": 1.0}}}
        add_to_current(shipped)  # no profiler: silently dropped
        with collect_profile() as prof:
            add_to_current(shipped)
        assert prof.stages["simulate"].wall_s == pytest.approx(1.0)


#: Serial, and on a fork pool where the platform has one.
JOBS = [1] + ([2] if fork_available() else [])


def _assert_point_stages(prof) -> None:
    assert prof.stages["generate"].wall_s > 0.0
    assert prof.stages["schedule"].wall_s > 0.0
    # Insertion happens inside scheduling; nesting means the parts never
    # exceed the whole.
    assert prof.stages["insert"].wall_s <= prof.stages["schedule"].wall_s


class TestPipelineIntegration:
    def test_run_point_populates_timings(self):
        with collect_profile() as prof:
            run_point(POINT, jobs=1)
        _assert_point_stages(prof)

    def test_run_point_credits_enclosing_collector(self):
        """The enclosing profiler (the perf harness timing a whole sweep)
        sees the point's stage times when the point runs on a pool,
        through the workers' shipped profiles."""
        with collect_profile() as prof:
            run_point(POINT, jobs=JOBS[-1])
        _assert_point_stages(prof)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_perf_record_stages_from_profile(self, jobs):
        """The record's ``stages`` block: five stage walls plus their
        CPU seconds, all positive; with ``jobs=2`` the sweep's stage
        times reach the record only through the shipped profiles."""
        stages = run_perf_report(count=4, jobs=jobs, values=(10,)).data[
            "stages"
        ]
        assert set(stages) == {*STAGES, "cpu"}
        for name in STAGES:
            assert stages[name] > 0.0, name
            assert stages["cpu"][name] > 0.0, name
        assert stages["insert"] <= stages["schedule"]
