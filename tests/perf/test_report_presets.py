"""Perf-workload presets (:data:`repro.perf.report.PRESETS`).

``paper3500`` is the paper-scale evaluation -- 35 sweep points x 100
benchmarks = 3500 scheduled benchmarks -- and ``scale1024`` the 1024-PE
stress leg behind the CI backend speed gate.  These tests pin the preset
tables structurally and smoke the multi-leg report path at count=1.
"""

from __future__ import annotations

import pytest

from repro.perf.report import (
    PERF_AXIS,
    PRESET_COUNTS,
    PRESETS,
    run_perf_report,
    trajectory_entry,
)


class TestPresetTables:
    def test_paper3500_is_paper_scale(self):
        points = sum(len(values) for _, values, _ in PRESETS["paper3500"])
        assert points == 35
        assert points * PRESET_COUNTS["paper3500"] == 3500

    def test_paper3500_covers_the_paper_axes(self):
        axes = [axis for axis, _, _ in PRESETS["paper3500"]]
        assert PERF_AXIS in axes
        assert "scheduler.n_pes" in axes
        pes_values = dict(
            (axis, values) for axis, values, _ in PRESETS["paper3500"]
        )["scheduler.n_pes"]
        assert max(pes_values) == 1024
        ablations = [
            overrides for _, _, overrides in PRESETS["paper3500"] if overrides
        ]
        assert {"scheduler.assignment": "roundrobin"} in ablations
        assert {"scheduler.machine": "dbm"} in ablations
        assert {"scheduler.insertion": "optimal"} in ablations

    def test_scale1024_pins_machine_width(self):
        ((axis, values, overrides),) = PRESETS["scale1024"]
        assert axis == PERF_AXIS
        assert overrides == {"scheduler.n_pes": 1024}
        assert len(values) >= 3

    def test_every_preset_has_a_count(self):
        assert set(PRESET_COUNTS) == set(PRESETS)
        assert all(count > 0 for count in PRESET_COUNTS.values())


class TestRunPerfReportPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown perf preset"):
            run_perf_report(count=1, jobs=1, preset="paper9000")

    def test_scale1024_smoke(self):
        report = run_perf_report(count=1, jobs=1, preset="scale1024")
        d = report.data
        assert d["preset"] == "scale1024"
        (leg,) = d["legs"]
        assert leg["axis"] == PERF_AXIS
        assert leg["values"] == list(PRESETS["scale1024"][0][1])
        # The record's top-level axis and values are the first leg's.
        assert (d["axis"], d["values"]) == (leg["axis"], leg["values"])
        assert leg["base"] == {"scheduler.n_pes": 1024}
        # Each leg carries its own throughput account.
        assert leg["cases"] == len(leg["values"]) * 1
        assert leg["wall_s"] > 0
        assert leg["cases_per_s"] > 0
        assert len(d["points"]) == len(PRESETS["scale1024"][0][1])
        assert all(p["axis"] == PERF_AXIS for p in d["points"])
        assert d["backend"]["resolved"] in ("python", "numpy")
        # The simulation pass runs on the leg's base point, i.e. at
        # 1024 PEs -- the digest certifies 1024-PE behaviour.
        assert d["results_digest"]
        entry = trajectory_entry(d)
        assert entry["preset"] == "scale1024"
        assert entry["backend"] == d["backend"]["resolved"]

    def test_parallel_record_tallies_worker_kernel_calls(self):
        # Pool workers dispatch every kernel call of a --jobs 2 run; the
        # calls reach the parent only through the merged metrics, so the
        # record's backend tally must be read from there.
        report = run_perf_report(count=4, jobs=2)
        d = report.data
        counters = d["metrics"]["counters"]
        calls = d["backend"]["calls"]
        assert calls
        assert calls == {
            key: n
            for key, n in counters.items()
            if key.startswith("kernels.calls.")
        }
        assert "kernel calls numpy 0 python 0" not in report.render()

    def test_default_count_comes_from_preset_table(self):
        # Structural only (no run): the CLI passes count=None through.
        assert PRESET_COUNTS["default"] == 25


class TestCorpusDigest:
    """A perf record digests every case it sweeps, outside the walls."""

    def test_digests_cover_every_swept_case(self):
        import hashlib
        import json

        from repro.experiments.sweeps import ExperimentPoint, _set_axis, run_corpus
        from repro.core.scheduler import SchedulerConfig
        from repro.perf.parallel import results_digest
        from repro.synth.generator import GeneratorConfig

        data = run_perf_report(count=3, jobs=1, preset="paper3500").data
        base = ExperimentPoint(
            generator=GeneratorConfig(n_statements=20, n_variables=8),
            scheduler=SchedulerConfig(n_pes=8),
            count=3,
        )

        def combined(digests):
            blob = json.dumps(digests, separators=(",", ":")).encode()
            return hashlib.sha256(blob).hexdigest()

        points = iter(data["points"])
        every = []
        for (axis, values, overrides), leg in zip(
            PRESETS["paper3500"], data["legs"]
        ):
            point = base
            for over_axis, over_value in overrides.items():
                point = _set_axis(point, over_axis, over_value)
            digests = []
            for value in values:
                row = next(points)
                expect = results_digest(run_corpus(_set_axis(point, axis, value)))
                assert row["digest"] == expect
                digests.append(expect)
            assert leg["digest"] == combined(digests)
            every.extend(digests)
        assert data["corpus_digest"] == combined(every)
        assert data["digest_s"] >= 0
        entry = trajectory_entry(data)
        assert entry["corpus_digest"] == data["corpus_digest"]
        assert [leg["digest"] for leg in entry["legs"]] == [
            leg["digest"] for leg in data["legs"]
        ]

    def test_corpus_digest_same_on_the_pool(self):
        from repro.perf.parallel import fork_available

        if not fork_available():
            pytest.skip("needs fork")
        serial = run_perf_report(count=4, jobs=1).data
        pooled = run_perf_report(count=4, jobs=2).data
        assert serial["corpus_digest"] == pooled["corpus_digest"]
        assert [p["digest"] for p in serial["points"]] == [
            p["digest"] for p in pooled["points"]
        ]
