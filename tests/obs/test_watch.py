"""Perf-trajectory watchdog: regression flagging over BENCH series.

Entries are built synthetically -- the watchdog consumes plain dicts in
the trajectory-entry shape, so tests can pin the statistics without
running the perf workload."""

import json

import pytest

from repro.obs.watch import (
    FACTOR,
    explain_regression,
    load_trajectory,
    watch_trajectory,
)
from repro.perf.report import TRAJECTORY_FORMAT, append_trajectory, trajectory_entry


def entry(wall=10.0, digest="d0", barrier=0.25, **stages):
    base_stages = {
        "generate": 1.0,
        "schedule": 2.0,
        "insert": 1.0,
        "merge": 0.5,
        "simulate": 0.5,
    }
    base_stages.update(stages)
    return {
        "format": TRAJECTORY_FORMAT,
        "wall_s": wall,
        "stages": base_stages,
        "results_digest": digest,
        "points": [
            {
                "value": 20,
                "barrier": barrier,
                "serialized": 0.5,
                "static": 0.25,
                "mean_makespan_max": 30.0,
            }
        ],
    }


class TestTimeSeries:
    def test_steady_series_is_ok(self):
        report = watch_trajectory([entry(), entry(), entry()])
        assert report.ok
        assert report.entries == 3

    def test_wall_regression_flagged(self):
        # 10, 10, then 25: median(prior)=10, limit=max(20, 11.5)=20.
        report = watch_trajectory([entry(), entry(), entry(wall=25.0)])
        flagged = {v.name for v in report.flagged}
        assert "wall_s" in flagged

    def test_stage_regression_flagged_with_stage_floor(self):
        report = watch_trajectory(
            [entry(), entry(), entry(schedule=5.0)]
        )
        assert {v.name for v in report.flagged} == {"stages.schedule"}

    def test_noise_below_absolute_floor_not_flagged(self):
        # 3x a tiny stage time is still under the 0.5s absolute floor.
        report = watch_trajectory(
            [entry(merge=0.01), entry(merge=0.01), entry(merge=0.03)]
        )
        assert report.ok

    def test_factor_is_the_ci_constant(self):
        # median(prior)=10: limit=max(FACTOR x 10, 10 + 1.5)=20.
        assert FACTOR == 2.0
        assert watch_trajectory([entry(), entry(), entry(wall=20.0)]).ok
        report = watch_trajectory([entry(), entry(), entry(wall=20.5)])
        assert {v.name for v in report.flagged} == {"wall_s"}

    def test_baseline_excludes_other_workloads(self):
        # Quick default-preset runs must not drag the baseline median
        # down for a heavy scale1024 entry (and vice versa).
        quick = dict(entry(wall=0.5), preset="default", count=25)
        heavy = dict(entry(wall=30.0), preset="scale1024", count=100)
        latest = dict(entry(wall=40.0), preset="scale1024", count=100)
        report = watch_trajectory([quick, quick, heavy, latest])
        # Comparable history is just the one heavy run: limit 60s, ok.
        assert "wall_s" not in {v.name for v in report.flagged}
        assert any(
            "different" in n and "workload" in n for n in report.notes
        )

    def test_no_comparable_history_skips_time_series(self):
        quick = dict(entry(wall=0.5), preset="default", count=25)
        latest = dict(entry(wall=40.0), preset="scale1024", count=100)
        report = watch_trajectory([quick, quick, latest])
        assert not [v for v in report.verdicts if v.kind == "time"]

    def test_single_entry_yields_note_only(self):
        report = watch_trajectory([entry()])
        assert report.ok and not report.verdicts
        assert any("fewer than 2" in n for n in report.notes)


def rated(rate, wall=10.0, **kwargs):
    return dict(entry(wall=wall, **kwargs), cases_per_s=rate)


class TestThroughputSeries:
    def test_steady_throughput_is_ok(self):
        report = watch_trajectory([rated(5.0), rated(5.0), rated(5.1)])
        assert report.ok
        assert [v for v in report.verdicts if v.kind == "throughput"]

    def test_throughput_collapse_flagged(self):
        # 5/s baseline, factor 2 -> limit 2.5/s; 1.0/s is a regression.
        report = watch_trajectory([rated(5.0), rated(5.0), rated(1.0)])
        flagged = [v for v in report.flagged if v.kind == "throughput"]
        assert flagged and flagged[0].name == "cases_per_s"
        assert "fell below" in flagged[0].detail

    def test_faster_is_never_flagged(self):
        report = watch_trajectory([rated(5.0), rated(5.0), rated(50.0)])
        assert not [v for v in report.flagged if v.kind == "throughput"]

    def test_subsecond_runs_skip_throughput(self):
        # Rate on a sub-floor wall time is noise, same as the wall series.
        report = watch_trajectory(
            [rated(5.0, wall=0.1), rated(5.0, wall=0.1), rated(0.5, wall=0.1)]
        )
        assert not [v for v in report.verdicts if v.kind == "throughput"]

    def test_entries_without_rate_skip_series(self):
        # Entries recorded before throughput landed have no cases_per_s.
        report = watch_trajectory([entry(), entry(), entry()])
        assert not [v for v in report.verdicts if v.kind == "throughput"]


def profiled(schedule=2.0, kernel_wall=1.0, kernel_calls=100,
             gc_pause=0.1, rate=5.0, wall=10.0, cpu=None, **kwargs):
    """A trajectory entry carrying the profile block ``watch --explain``
    diffs, in the trimmed shape ``trajectory_entry`` records."""
    e = dict(
        entry(wall=wall, schedule=schedule, **kwargs),
        preset="default",
        count=25,
        cases_per_s=rate,
        profile={
            "kernels": {
                "paths.python": {
                    "count": kernel_calls,
                    "wall_s": kernel_wall,
                    "cpu_s": kernel_wall,
                    "max_s": 0.01,
                }
            },
            "gc": {"pauses": 2, "pause_s": gc_pause, "collected": 10},
            "peak_rss": 1 << 20,
        },
    )
    if cpu is not None:
        e["stages"] = dict(e["stages"], cpu=cpu)
    return e


class TestExplainRegression:
    def test_injected_stage_regression_named_top(self):
        """The pinned acceptance scenario: inject a synthetic regression
        into one stage and one kernel; --explain must name them, ranked
        by lost time, with the deltas."""
        prior = [profiled() for _ in range(4)]
        slow = profiled(schedule=6.0, kernel_wall=3.5, wall=14.0)
        report = explain_regression(prior + [slow])
        assert report.n_prior == 4
        assert report.causes, "regression must produce causes"
        top = report.causes[0]
        assert (top.kind, top.name) == ("stage", "schedule")
        assert top.delta == pytest.approx(4.0)
        kinds = {(c.kind, c.name) for c in report.causes}
        assert ("kernel", "paths.python") in kinds
        kernel = next(c for c in report.causes if c.kind == "kernel")
        assert kernel.delta == pytest.approx(2.5)

    def test_stall_note_from_cpu_column(self):
        # Wall grew 4s but CPU barely moved: the note must call it a
        # stall, not compute.
        prior = [profiled(cpu={"schedule": 1.9}) for _ in range(3)]
        slow = profiled(schedule=6.0, wall=14.0, cpu={"schedule": 2.0})
        report = explain_regression(prior + [slow])
        stage = next(c for c in report.causes if c.name == "schedule")
        assert "stall" in stage.note

    def test_gc_regression_surfaces(self):
        prior = [profiled() for _ in range(3)]
        slow = profiled(gc_pause=2.5)
        report = explain_regression(prior + [slow])
        assert any(c.kind == "gc" for c in report.causes)

    def test_steady_series_has_no_causes(self):
        report = explain_regression([profiled() for _ in range(4)])
        assert report.causes == ()
        assert "nothing regressed" in report.render()

    def test_other_workloads_excluded_from_baseline(self):
        other = dict(profiled(schedule=0.1, wall=1.0), preset="scale1024")
        prior = [profiled() for _ in range(3)]
        report = explain_regression([other] + prior + [profiled(schedule=2.0)])
        assert report.n_prior == 3  # the scale1024 run is not comparable
        assert not any(c.name == "schedule" for c in report.causes)

    def test_empty_and_no_comparable_history(self):
        assert explain_regression([]).causes == ()
        lone = explain_regression([profiled()])
        assert lone.n_prior == 0
        assert any("no prior" in n for n in lone.notes)

    def test_prior_without_profiles_noted(self):
        # Entries recorded before profiling landed carry no profile;
        # kernel deltas are skipped with an explicit note, not compared
        # against a silent zero baseline.
        bare = [dict(profiled(), profile=None) for _ in range(3)]
        report = explain_regression(bare + [profiled(kernel_wall=9.0)])
        assert not any(c.kind == "kernel" for c in report.causes)
        assert any("kernel" in n for n in report.notes)

    def test_top_n_truncates(self):
        prior = [profiled() for _ in range(3)]
        slow = profiled(
            schedule=6.0, kernel_wall=3.0, gc_pause=2.0, wall=14.0,
            generate=3.0, insert=3.0, merge=3.0, simulate=3.0,
        )
        report = explain_regression(prior + [slow], top=2)
        assert len(report.causes) == 2
        deltas = [c.delta for c in report.causes]
        assert deltas == sorted(deltas, reverse=True)

    def test_renderings(self):
        prior = [profiled() for _ in range(3)]
        slow = profiled(schedule=6.0, wall=14.0)
        report = explain_regression(prior + [slow])
        text = report.render()
        assert "explain:" in text and "stage schedule" in text
        md = report.render_markdown()
        assert md.startswith("## Regression attribution")
        assert "| 1 | stage | `schedule` |" in md
        data = json.loads(json.dumps(report.as_dict()))
        assert data["causes"][0]["name"] == "schedule"


class TestDeterministicSeries:
    def test_same_digest_same_values_ok(self):
        report = watch_trajectory([entry(digest="x"), entry(digest="x")])
        assert report.ok
        det = [v for v in report.verdicts if v.kind == "deterministic"]
        assert det  # the headline numbers were actually compared

    def test_same_digest_different_value_is_determinism_violation(self):
        report = watch_trajectory(
            [entry(digest="x", barrier=0.25), entry(digest="x", barrier=0.26)]
        )
        flagged = [v for v in report.flagged if v.kind == "deterministic"]
        assert flagged
        assert "determinism violation" in flagged[0].detail

    def test_same_digest_different_workload_not_compared(self):
        # The digest only covers the simulated subset (it saturates at
        # SIMULATED_CASES), so a --count 10 run can share a digest with
        # a --count 100 run while sweeping a different corpus.  Those
        # entries must not be treated as a determinism check.
        small = dict(entry(digest="x", barrier=0.25), count=10, master_seed=0)
        big = dict(entry(digest="x", barrier=0.40), count=100, master_seed=0)
        report = watch_trajectory([small, big])
        assert report.ok
        assert not [v for v in report.verdicts if v.kind == "deterministic"]
        assert any("different" in n and "workload" in n for n in report.notes)

    def test_same_digest_same_workload_still_compared(self):
        a = dict(entry(digest="x", barrier=0.25), count=25, master_seed=0)
        b = dict(entry(digest="x", barrier=0.26), count=25, master_seed=0)
        report = watch_trajectory([a, b])
        flagged = [v for v in report.flagged if v.kind == "deterministic"]
        assert flagged and "determinism violation" in flagged[0].detail

    def test_digest_change_downgrades_to_note(self):
        report = watch_trajectory(
            [entry(digest="x", barrier=0.25), entry(digest="y", barrier=0.40)]
        )
        det_flagged = [v for v in report.flagged if v.kind == "deterministic"]
        assert not det_flagged
        assert any("distinct results_digest" in n for n in report.notes)


def corpus(digest, preset="paper3500", count=100, seed=0):
    return dict(
        entry(digest="sim"),
        corpus_digest=digest,
        preset=preset,
        count=count,
        master_seed=seed,
    )


class TestCorpusDigest:
    def test_change_within_preset_and_count_is_flagged(self):
        report = watch_trajectory([corpus("a"), corpus("a"), corpus("b")])
        flagged = [v for v in report.flagged if v.name == "corpus_digest"]
        assert flagged and flagged[0].kind == "digest"
        assert "scheduled cases changed" in flagged[0].detail
        assert "corpus_digest" in report.render()

    def test_same_digest_passes(self):
        report = watch_trajectory([corpus("a"), corpus("a")])
        digest = [v for v in report.verdicts if v.name == "corpus_digest"]
        assert digest and not digest[0].flagged and report.ok

    @pytest.mark.parametrize(
        "other",
        [
            dict(preset="scale1024"),
            dict(count=25),
            dict(seed=3),
        ],
    )
    def test_other_workloads_are_not_compared(self, other):
        report = watch_trajectory([corpus("a", **other), corpus("b")])
        assert not [v for v in report.verdicts if v.name == "corpus_digest"]

    def test_entries_without_the_digest_are_skipped(self):
        old = dict(corpus("a"))
        del old["corpus_digest"]
        report = watch_trajectory([old, corpus("b")])
        assert not [v for v in report.verdicts if v.name == "corpus_digest"]


class TestRendering:
    def test_markdown_report_shape(self):
        report = watch_trajectory([entry(), entry(), entry(wall=50.0)])
        md = report.render_markdown()
        assert md.startswith("# Perf-trajectory watchdog")
        assert "REGRESSION" in md
        assert "| `wall_s` |" in md

    def test_text_report_marks_flags(self):
        report = watch_trajectory([entry(), entry(), entry(wall=50.0)])
        text = report.render()
        assert "[FLAG] wall_s" in text

    def test_as_dict_json_shaped(self):
        report = watch_trajectory([entry(), entry()])
        data = json.loads(json.dumps(report.as_dict()))
        assert data["ok"] is True


class TestTrajectoryIO:
    def test_missing_file_is_empty_series(self, tmp_path):
        assert load_trajectory(tmp_path / "none.jsonl") == []

    def test_bad_line_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            load_trajectory(path)

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "series" / "t.jsonl"
        data = {
            "wall_s": 1.5,
            "stages": {"schedule": 0.5},
            "results_digest": "abc",
            "points": [{"value": 10, "barrier": 0.2}],
            "created_unix": 123.0,
        }
        append_trajectory(data, path, label="one")
        append_trajectory(data, path, label="two")
        entries = load_trajectory(path)
        assert [e["label"] for e in entries] == ["one", "two"]
        assert all(e["format"] == TRAJECTORY_FORMAT for e in entries)
        assert entries[0]["wall_s"] == 1.5

    def test_trajectory_entry_trims_to_watched_fields(self):
        data = {
            "wall_s": 2.0,
            "stages": {"schedule": 1.0},
            "results_digest": "abc",
            "points": [{"value": 10, "barrier": 0.2, "n_benchmarks": 99}],
            "metrics": {"huge": "blob"},
            "created_unix": 5.0,
        }
        trimmed = trajectory_entry(data)
        assert "metrics" not in trimmed
        assert trimmed["points"][0].get("n_benchmarks") is None
        assert trimmed["results_digest"] == "abc"
