"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "block.src"
    path.write_text("a = x + y\nb = a * 3\nc = b - x\nd = c % 7\n")
    return str(path)


class TestGenerate:
    def test_emits_parseable_source(self, capsys):
        assert main(["generate", "-s", "8", "-v", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        from repro.ir.parser import parse_block

        assert len(parse_block(out)) == 8

    def test_deterministic(self, capsys):
        main(["generate", "--seed", "5"])
        first = capsys.readouterr().out
        main(["generate", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestCompile:
    def test_shows_tuples_and_dag(self, capsys, block_file):
        assert main(["compile", block_file]) == 0
        out = capsys.readouterr().out
        assert "raw tuples" in out
        assert "optimized tuples" in out
        assert "critical path" in out

    def test_no_optimize(self, capsys, block_file):
        main(["compile", block_file, "--no-optimize"])
        out = capsys.readouterr().out
        assert "optimized tuples" not in out


class TestSchedule:
    def test_quiet_prints_fractions(self, capsys, block_file):
        assert main(["schedule", block_file, "--pes", "4", "-q"]) == 0
        out = capsys.readouterr().out
        assert "serialized" in out and "makespan" in out

    def test_full_output_has_embedding(self, capsys, block_file):
        main(["schedule", block_file, "--pes", "4"])
        out = capsys.readouterr().out
        assert "barrier embedding" in out and "barrier dag" in out

    def test_dbm_machine(self, capsys, block_file):
        assert main(["schedule", block_file, "--machine", "dbm", "-q"]) == 0
        assert "DBM" in capsys.readouterr().out

    def test_optimal_insertion(self, capsys, block_file):
        assert main(["schedule", block_file, "--insertion", "optimal", "-q"]) == 0


class TestSimulate:
    def test_runs_and_validates(self, capsys, block_file):
        assert main(["simulate", block_file, "--pes", "4", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "run 0" in out and "run 1" in out and "fires:" in out

    def test_samplers(self, capsys, block_file):
        for sampler in ("min", "max", "bimodal", "uniform"):
            assert main(
                ["simulate", block_file, "--sampler", sampler, "-q"]
            ) == 0

    def test_quiet_mode(self, capsys, block_file):
        main(["simulate", block_file, "-q"])
        out = capsys.readouterr().out
        assert "SBM run" in out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig15_small(self, capsys):
        assert main(["experiment", "fig15", "--count", "3"]) == 0
        assert "Figure 15" in capsys.readouterr().out

    def test_secondary_small(self, capsys):
        assert main(["experiment", "secondary", "--count", "5"]) == 0
        assert "28%" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])


class TestFlow:
    def test_flow_program_runs(self, capsys, tmp_path):
        path = tmp_path / "prog.src"
        path.write_text(
            "s = 0\nwhile (n) { s = s + n\n n = n - 1 }\n"
        )
        assert main(["flow", str(path), "-i", "n=4", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "s = 10" in out and "run 1" in out and "path bound" in out

    def test_flow_bad_input_binding(self, capsys, tmp_path):
        path = tmp_path / "prog.src"
        path.write_text("a = 1 + 1")
        assert main(["flow", str(path), "-i", "oops"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:") and "'oops'" in err
        assert len(err.strip().splitlines()) == 1

    def test_flow_unbound_variable(self, capsys, tmp_path):
        path = tmp_path / "prog.src"
        path.write_text("a = b + c")
        assert main(["flow", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no partial report before the error
        assert err.startswith("repro-sbm: error:")
        assert "'b'" in err and "--input VAR=INT" in err
        assert len(err.strip().splitlines()) == 1

    def test_flow_negative_input(self, capsys, tmp_path):
        path = tmp_path / "prog.src"
        path.write_text("b = a * a")
        assert main(["flow", str(path), "-i", "a=-3"]) == 0
        assert "b = 9" in capsys.readouterr().out


class TestArchive:
    def test_archive_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert main(
            ["archive", str(out), "-s", "15", "-v", "5", "--count", "4"]
        ) == 0
        text = capsys.readouterr().out
        assert "wrote 4 records" in text and "archive:" in text
        from repro.experiments.archive import load_archive

        header, records = load_archive(out)
        assert header["scheduler"]["n_pes"] == 8
        assert len(records) == 4


class TestExtensionExperiments:
    @pytest.mark.parametrize(
        "name", ["barriercost", "flowoverhead", "kernels", "syncelim"]
    )
    def test_extension_experiments_run(self, capsys, name):
        assert main(["experiment", name, "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 3


class TestDot:
    def test_emits_both_graphs(self, capsys, block_file):
        assert main(["dot", block_file, "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 2
        assert '"b0"' in out

    def test_dag_only(self, capsys, block_file):
        assert main(["dot", block_file, "--what", "dag"]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 1 and "Load" in out


class TestFaults:
    def test_campaign_on_file(self, capsys, block_file):
        assert main(["faults", block_file, "--runs", "5", "--epsilon", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "static robustness margin" in out
        assert "fault campaign (as scheduled)" in out
        assert "epsilon-hardening" in out
        assert "fault campaign (hardened)" in out

    def test_reference_command_finds_and_fixes_race(self, capsys):
        # The reference invocation of docs/robustness.md: on the
        # auto-generated block, eps = 0.25 must surface at least one
        # race, and the hardened schedule must show none.
        assert main(["faults", "--epsilon", "0.25", "--runs", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "RACES" in out
        assert "proof broken" in out and "slack" in out
        scheduled_part, hardened_part = out.split("== fault campaign (hardened) ==")
        assert "RACES" in scheduled_part
        assert "no races observed" in hardened_part

    def test_epsilon_zero_never_races(self, capsys):
        for machine in ("sbm", "dbm"):
            assert main(
                ["faults", "--epsilon", "0", "--runs", "10", "--machine", machine]
            ) == 0
            out = capsys.readouterr().out
            assert "RACES" not in out
            assert "epsilon-hardening" not in out  # null plan: nothing to harden

    def test_no_harden_skips_second_campaign(self, capsys, block_file):
        assert main(["faults", block_file, "--runs", "3", "--no-harden"]) == 0
        assert "hardened" not in capsys.readouterr().out

    def test_fault_modes_accepted(self, capsys, block_file):
        assert main(
            [
                "faults", block_file, "--runs", "3", "--epsilon", "0.2",
                "--p-overrun", "0.5", "--spike-prob", "0.2", "--spike", "4",
                "--stragglers", "0,2", "--straggler-factor", "3",
                "--jitter", "2", "--no-directed",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "stragglers" in out and "jitter" in out

    def test_bad_stragglers_entry(self, capsys, block_file):
        assert main(["faults", block_file, "--stragglers", "zero"]) == 2
        assert "repro-sbm: error:" in capsys.readouterr().err

    def test_stragglers_out_of_range(self, capsys, block_file):
        assert main(["faults", block_file, "--pes", "2", "--stragglers", "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_bad_epsilon_rejected(self, capsys, block_file):
        assert main(["faults", block_file, "--epsilon", "-1"]) == 2
        assert "epsilon" in capsys.readouterr().err


class TestBadInputDiagnostics:
    """Bad inputs exit with status 2 and one line on stderr -- never a
    traceback (the robustness satellite of the fault-injection PR)."""

    def test_missing_source_file(self, capsys):
        assert main(["schedule", "/no/such/file.src"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:")
        assert "file.src" in err

    def test_parse_error_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "bad.src"
        path.write_text("a = b +\n")
        assert main(["schedule", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_for_simulate_and_compile(self, capsys):
        assert main(["simulate", "/no/such/file.src"]) == 2
        assert main(["compile", "/no/such/file.src"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["0", "-2", "abc"])
    def test_invalid_pes_exits_two(self, value, block_file):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", block_file, "--pes", value])
        assert exc.value.code == 2

    def test_invalid_seed_exits_two(self, block_file):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", block_file, "--seed", "abc"])
        assert exc.value.code == 2

    def test_invalid_runs_for_faults(self, block_file):
        with pytest.raises(SystemExit) as exc:
            main(["faults", block_file, "--runs", "0"])
        assert exc.value.code == 2


class TestRobustnessExperiment:
    def test_registered_and_runs(self, capsys):
        assert main(["experiment", "robustness", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "fault-tolerance curve" in out
        assert "hardened-racy" in out


class TestExplain:
    def test_attributes_barriers_and_assignments(self, capsys, block_file):
        assert main(["explain", block_file, "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "assignments:" in out
        assert "-> PE" in out
        assert "merges:" in out
        # Every inserted barrier is pinned to the edge that forced it.
        if "barriers: none inserted" not in out:
            assert "forced by" in out and "slack" in out

    def test_json_output(self, capsys, block_file):
        import json

        assert main(["explain", block_file, "--pes", "4", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "summary", "assignments", "barriers", "merges", "demotions",
            "kernels",
        }
        assert doc["kernels"]["resolved"] in ("python", "numpy")
        for barrier in doc["barriers"]:
            assert barrier["attributed"]
            for d in barrier["decisions"]:
                assert d["slack"] < 0

    def test_missing_file_exits_two(self, capsys):
        assert main(["explain", "/no/such/file.src"]) == 2
        assert capsys.readouterr().err.startswith("repro-sbm: error:")


class TestTraceFlag:
    def test_simulate_writes_chrome_trace(self, capsys, tmp_path, block_file):
        import json

        trace = tmp_path / "trace.json"
        assert main(["simulate", block_file, "-q", "--trace", str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        # All five pipeline stages appear in one simulate trace.
        assert {"generate", "schedule", "insert", "merge", "simulate"} <= names
        for e in doc["traceEvents"]:
            assert e["ph"] in ("X", "i")
            assert {"name", "ts", "pid", "tid"} <= set(e)

    def test_schedule_writes_jsonl(self, capsys, tmp_path, block_file):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(["schedule", block_file, "-q", "--trace", str(trace)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert "span" in kinds

    def test_trace_does_not_change_stdout(self, capsys, tmp_path, block_file):
        assert main(["schedule", block_file, "-q"]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "t.json"
        assert main(["schedule", block_file, "-q", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == plain

    def test_unwritable_trace_path_exits_two(self, capsys, block_file):
        assert main(
            ["schedule", block_file, "-q", "--trace", "/no/such/dir/t.json"]
        ) == 2
        assert capsys.readouterr().err.startswith("repro-sbm: error:")


class TestVerbosityFlags:
    def test_verbose_logs_trace_write(self, capsys, tmp_path, block_file):
        trace = tmp_path / "t.json"
        assert main(
            ["-v", "schedule", block_file, "-q", "--trace", str(trace)]
        ) == 0
        err = capsys.readouterr().err
        assert "repro.cli" in err and "wrote trace" in err

    def test_default_is_quiet_about_info(self, capsys, tmp_path, block_file):
        trace = tmp_path / "t.json"
        assert main(["schedule", block_file, "-q", "--trace", str(trace)]) == 0
        assert "wrote trace" not in capsys.readouterr().err

    def test_global_quiet_suppresses_warnings(self, capsys, block_file):
        from repro.obs.logging import get_logger

        assert main(["-q", "schedule", block_file, "-q"]) == 0
        capsys.readouterr()
        get_logger("cli").warning("should be hidden")
        assert "should be hidden" not in capsys.readouterr().err
        # Restore the default level for the rest of the suite.
        assert main(["schedule", block_file, "-q"]) == 0
        capsys.readouterr()

    def test_error_contract_unchanged_under_quiet(self, capsys):
        assert main(["-q", "schedule", "/no/such/file.src"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:")
        assert len(err.strip().splitlines()) == 1


@pytest.fixture
def big_block_file(tmp_path, capsys):
    """A generated 25-statement block -- large enough that SBM merging
    actually fires (the small hand block produces no merge candidates)."""
    main(["generate", "-s", "25", "--seed", "7"])
    path = tmp_path / "big.src"
    path.write_text(capsys.readouterr().out)
    return str(path)


class TestSimulateRuntimeAnalytics:
    def test_summary_printed(self, capsys, block_file):
        assert main(["simulate", block_file, "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "runtime analysis" in out
        assert "mean utilization" in out
        assert "executed critical path" in out

    def test_gantt_rows_show_utilization(self, capsys, block_file):
        main(["simulate", block_file, "--pes", "4"])
        out = capsys.readouterr().out
        assert "% busy" in out

    def test_timeline_written(self, capsys, tmp_path, block_file):
        import json

        timeline = tmp_path / "machine.json"
        assert main(
            ["simulate", block_file, "-q", "--timeline", str(timeline)]
        ) == 0
        doc = json.loads(timeline.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "M", "s", "f"} <= phases
        assert doc["otherData"]["machine"] == "sbm"


class TestRecordAndDiff:
    def _record(self, capsys, source, path, merge):
        assert main(
            ["schedule", source, "--pes", "4", "-q",
             "--merge", merge, "--record", str(path), "--label", merge]
        ) == 0
        capsys.readouterr()

    def test_identical_records_diff_clean(self, capsys, tmp_path, block_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._record(capsys, block_file, a, "auto")
        self._record(capsys, block_file, b, "auto")
        assert main(["diff", str(a), str(b)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_merge_on_off_diff_names_decision(
        self, capsys, tmp_path, big_block_file
    ):
        """The acceptance scenario: two runs differing only in --merge
        diff to a localized divergence naming the merge decision."""
        a, b = tmp_path / "on.json", tmp_path / "off.json"
        self._record(capsys, big_block_file, a, "on")
        self._record(capsys, big_block_file, b, "off")
        assert main(["diff", str(a), str(b)]) == 1  # diverged
        out = capsys.readouterr().out
        assert "first divergence: layer" in out
        assert "merging_enabled: True -> False" in out
        assert "absorbed into" in out  # the named merge decision

    def test_diff_json_mode(self, capsys, tmp_path, block_file):
        import json

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._record(capsys, block_file, a, "auto")
        self._record(capsys, block_file, b, "auto")
        assert main(["diff", str(a), str(b), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identical"] is True

    def test_diff_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["diff", "/no/a.json", "/no/b.json"]) == 2
        assert "repro-sbm: error:" in capsys.readouterr().err

    def test_diff_bad_format_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        assert main(["diff", str(bad), str(bad)]) == 2
        assert "unsupported run-record format" in capsys.readouterr().err

    def test_simulate_record_carries_trace(
        self, capsys, tmp_path, block_file
    ):
        import json

        path = tmp_path / "run.json"
        assert main(
            ["simulate", block_file, "-q", "--record", str(path)]
        ) == 0
        record = json.loads(path.read_text())
        assert record["trace"]["makespan"] > 0
        assert record["analysis"]["pes"]


class TestExplainRuntime:
    def test_runtime_section_cross_links_provenance(
        self, capsys, big_block_file
    ):
        assert main(
            ["explain", big_block_file, "--pes", "4", "--runtime"]
        ) == 0
        out = capsys.readouterr().out
        assert "runtime analysis" in out
        assert "critical b" in out  # each critical barrier is explained

    def test_runtime_json_mode(self, capsys, block_file):
        import json

        assert main(["explain", block_file, "--runtime", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["runtime"]["makespan"] > 0
        assert "critical_path" in data["runtime"]


class TestWatchCommand:
    def _series(self, tmp_path, *walls):
        import json

        path = tmp_path / "traj.jsonl"
        entries = []
        for w in walls:
            entries.append(json.dumps({
                "wall_s": w,
                "stages": {"schedule": w / 2},
                "results_digest": "d",
                "points": [],
            }))
        path.write_text("\n".join(entries) + "\n")
        return str(path)

    def test_ok_series_exits_zero(self, capsys, tmp_path):
        path = self._series(tmp_path, 10.0, 10.0, 10.0)
        assert main(["watch", "--trajectory", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one_and_writes_report(self, capsys, tmp_path):
        path = self._series(tmp_path, 10.0, 10.0, 40.0)
        report = tmp_path / "report.md"
        assert main(
            ["watch", "--trajectory", path, "--output", str(report)]
        ) == 1
        assert "FLAGGED" in capsys.readouterr().out
        assert "REGRESSION" in report.read_text()

    def test_empty_series_is_ok(self, capsys, tmp_path):
        assert main(
            ["watch", "--trajectory", str(tmp_path / "none.jsonl")]
        ) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_json_mode(self, capsys, tmp_path):
        import json

        path = self._series(tmp_path, 10.0, 10.0)
        assert main(["watch", "--trajectory", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_factor_flag(self, capsys, tmp_path):
        path = self._series(tmp_path, 10.0, 10.0, 18.0)
        assert main(["watch", "--trajectory", path]) == 0
        capsys.readouterr()
        assert main(["watch", "--trajectory", path, "--factor", "1.1"]) == 1

    def test_bad_line_exits_two(self, capsys, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text("not json\n")
        assert main(["watch", "--trajectory", str(path)]) == 2
        assert "bad trajectory line" in capsys.readouterr().err


class TestPerfTrajectory:
    def test_perf_appends_trajectory_entry(self, capsys, tmp_path):
        import json

        traj = tmp_path / "traj.jsonl"
        assert main(
            ["perf", "--count", "2", "--output", "-",
             "--trajectory", str(traj), "--label", "t"]
        ) == 0
        assert "appended trajectory entry" in capsys.readouterr().out
        entries = [json.loads(l) for l in traj.read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["label"] == "t"
        assert entries[0]["wall_s"] > 0

    def test_no_trajectory_opt_out(self, capsys, tmp_path):
        traj = tmp_path / "traj.jsonl"
        assert main(
            ["perf", "--count", "2", "--output", "-",
             "--trajectory", str(traj), "--no-trajectory"]
        ) == 0
        assert "appended" not in capsys.readouterr().out
        assert not traj.exists()


class TestHybridCLI:
    def test_schedule_mode_hybrid_prints_plan(self, capsys):
        assert main(
            ["schedule", "--mode", "hybrid", "--hybrid-epsilon", "0.25",
             "--pes", "4", "--seed", "7", "-", ]
        ) == 2  # stdin is empty under capsys -> parse error, not a traceback
        capsys.readouterr()

    def test_schedule_hybrid_on_file(self, capsys, block_file):
        assert main(
            ["schedule", block_file, "--mode", "hybrid", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "hybrid demotion plan" in out
        assert "budget eps=" in out

    def test_simulate_hybrid_reports_guard_waits(self, capsys, block_file):
        assert main(
            ["simulate", block_file, "--mode", "hybrid", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "hybrid plan" in out
        assert "data-guard waits" in out

    def test_faults_mode_hybrid_adds_campaign_section(self, capsys):
        assert main(
            ["faults", "--epsilon", "0.25", "--runs", "20", "--seed", "7",
             "--mode", "hybrid"]
        ) == 0
        out = capsys.readouterr().out
        assert "== hybrid demotion plan ==" in out
        assert "== fault campaign (hybrid) ==" in out
        # The reference racy case: the static campaign races, the hybrid
        # campaign recovers every race as a guard wait.
        static_part = out.split("== hybrid demotion plan ==")[0]
        hybrid_part = out.split("== fault campaign (hybrid) ==")[1].split(
            "== epsilon-hardening =="
        )[0]
        assert "RACES" in static_part
        assert "no races observed" in hybrid_part
        assert "recovered wait(s)" in hybrid_part

    def test_faults_hybrid_explicit_budget(self, capsys, block_file):
        assert main(
            ["faults", block_file, "--runs", "3", "--mode", "hybrid",
             "--hybrid-epsilon", "0.5", "--no-harden"]
        ) == 0
        assert "budget eps=0.5" in capsys.readouterr().out

    def test_faults_jobs_flag_accepted(self, capsys):
        assert main(
            ["faults", "--epsilon", "0.25", "--runs", "8", "--seed", "7",
             "--jobs", "2", "--no-harden"]
        ) == 0
        capsys.readouterr()

    def test_hybrid_experiment_registered(self, capsys):
        assert main(
            ["experiment", "hybrid", "--count", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "hybrid robustness study" in out
        assert "static" in out and "hardened" in out


class TestFaultPlanInputHardening:
    """Malformed fault plans exit 2 with a one-line diagnostic (satellite)."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--epsilon", "-0.5"], "epsilon"),
            (["--p-overrun", "1.5"], "p_overrun"),
            (["--spike-prob", "-0.2"], "spike_prob"),
            (["--straggler-factor", "0.5"], "straggler_factor"),
            (["--stragglers", "one"], "--stragglers"),
            (["--stragglers", "9", "--pes", "4"], "out of range"),
            (["--spike-window", "abc"], "--spike-window"),
            (["--spike-window", "5"], "--spike-window"),
            (["--spike-window", "7:3"], "0 <= start < end"),
            (["--spike-window", "3:3"], "0 <= start < end"),
            (["--spike-window", "0:9", "--spike-window", "4:12"], "overlap"),
            (["--hybrid-epsilon", "-1", "--mode", "hybrid"], "budget"),
        ],
    )
    def test_malformed_plan_exits_two(self, capsys, block_file, argv, needle):
        assert main(["faults", block_file, "--runs", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:")
        assert len(err.strip().splitlines()) == 1
        assert needle in err


class TestProfileFlag:
    def test_schedule_writes_folded_stacks(self, capsys, tmp_path, block_file):
        folded = tmp_path / "run.folded"
        assert main(
            ["schedule", block_file, "-q", "--profile", str(folded)]
        ) == 0
        err = capsys.readouterr().err
        lines = folded.read_text().splitlines()
        assert lines, "a scheduled block must produce at least one stack"
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) >= 1
        assert any("schedule" in line for line in lines)
        # The collected accounting surfaces on stderr for non-perf runs.
        assert "profile: peak rss" in err

    def test_profile_does_not_change_stdout(self, capsys, tmp_path, block_file):
        assert main(["schedule", block_file, "-q"]) == 0
        plain = capsys.readouterr().out
        folded = tmp_path / "run.folded"
        assert main(
            ["schedule", block_file, "-q", "--profile", str(folded)]
        ) == 0
        assert capsys.readouterr().out == plain

    def test_trace_and_profile_share_one_run(self, capsys, tmp_path, block_file):
        import json

        trace = tmp_path / "t.json"
        folded = tmp_path / "t.folded"
        assert main(
            ["simulate", block_file, "-q",
             "--trace", str(trace), "--profile", str(folded)]
        ) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert folded.read_text().splitlines()

    def test_unwritable_profile_path_exits_two(self, capsys, block_file):
        assert main(
            ["schedule", block_file, "-q", "--profile", "/no/such/dir/p.folded"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:")
        assert len(err.strip().splitlines()) == 1

    def test_directory_profile_path_exits_two(self, capsys, tmp_path, block_file):
        assert main(
            ["schedule", block_file, "-q", "--profile", str(tmp_path)]
        ) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_perf_profile_and_report_block(self, capsys, tmp_path):
        folded = tmp_path / "perf.folded"
        assert main(
            ["perf", "--count", "2", "--output", "-", "--no-trajectory",
             "--profile", str(folded)]
        ) == 0
        out = capsys.readouterr().out
        assert "profile: peak rss" in out  # the report's own profile block
        assert folded.read_text().splitlines()

    def test_experiment_profile(self, capsys, tmp_path):
        folded = tmp_path / "exp.folded"
        assert main(
            ["experiment", "fig15", "--count", "2",
             "--profile", str(folded)]
        ) == 0
        err = capsys.readouterr().err
        assert folded.read_text().splitlines()
        assert "profile: peak rss" in err


class TestLiveFlag:
    def test_live_file_streams_jsonl_heartbeats(self, capsys, tmp_path):
        import json

        live = tmp_path / "live.jsonl"
        assert main(
            ["perf", "--count", "2", "--output", "-", "--no-trajectory",
             "--live", str(live)]
        ) == 0
        capsys.readouterr()
        beats = [json.loads(l) for l in live.read_text().splitlines()]
        assert beats, "a perf run must emit at least the final heartbeat"
        assert all(b["event"] == "progress" for b in beats)
        final = beats[-1]
        assert final["final"] is True
        assert final["done"] == final["total"] > 0
        assert final["cases_per_s"] > 0

    def test_bare_live_without_tty_falls_back_to_jsonl(self, capsys, tmp_path):
        import json

        # Under capsys stderr is not a terminal: the status line degrades
        # to machine-readable heartbeats on stderr, with a warning.
        assert main(
            ["perf", "--count", "2",
             "--output", str(tmp_path / "b.json"), "--no-trajectory",
             "--live"]
        ) == 0
        err = capsys.readouterr().err
        assert "not a terminal" in err
        beats = [
            json.loads(line)
            for line in err.splitlines()
            if line.startswith("{")
        ]
        assert beats and beats[-1]["final"] is True

    def test_bare_live_conflicts_with_stdout_json(self, capsys):
        assert main(
            ["perf", "--count", "1", "--output", "-", "--no-trajectory",
             "--live"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-sbm: error:")
        assert "--live" in err

    def test_unwritable_live_path_exits_two(self, capsys):
        assert main(
            ["perf", "--count", "1", "--output", "-", "--no-trajectory",
             "--live", "/no/such/dir/live.jsonl"]
        ) == 2
        assert capsys.readouterr().err.startswith("repro-sbm: error:")


class TestWatchExplain:
    def _series_with_profiles(self, tmp_path, slow=False):
        import json

        entries = []
        for i in range(4):
            entries.append({
                "wall_s": 10.0,
                "preset": "default",
                "count": 25,
                "cases_per_s": 5.0,
                "stages": {"schedule": 4.0, "cpu": {"schedule": 3.8}},
                "results_digest": "d",
                "points": [],
                "profile": {
                    "kernels": {
                        "paths.python": {
                            "count": 50, "wall_s": 1.0,
                            "cpu_s": 1.0, "max_s": 0.05,
                        }
                    },
                    "gc": {"pauses": 1, "pause_s": 0.05, "collected": 5},
                    "peak_rss": 1 << 20,
                },
            })
        if slow:
            entries[-1]["wall_s"] = 16.0
            entries[-1]["stages"] = {"schedule": 9.0, "cpu": {"schedule": 4.0}}
            entries[-1]["profile"]["kernels"]["paths.python"]["wall_s"] = 4.0
        path = tmp_path / "traj.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in entries) + "\n"
        )
        return str(path)

    def test_explain_names_regressed_stage_and_kernel(self, capsys, tmp_path):
        path = self._series_with_profiles(tmp_path, slow=True)
        main(["watch", "--trajectory", path, "--explain"])
        out = capsys.readouterr().out
        assert "explain:" in out
        # The injected regression: schedule stage first, kernel named too.
        assert "1. stage schedule: +5.000s" in out
        assert "kernel paths.python" in out
        assert "stall" in out  # wall grew, cpu flat -> attribution note

    def test_explain_json_block(self, capsys, tmp_path):
        import json

        path = self._series_with_profiles(tmp_path, slow=True)
        main(["watch", "--trajectory", path, "--explain", "--json"])
        data = json.loads(capsys.readouterr().out)
        causes = data["explain"]["causes"]
        assert causes[0]["kind"] == "stage"
        assert causes[0]["name"] == "schedule"

    def test_explain_markdown_artifact(self, capsys, tmp_path):
        path = self._series_with_profiles(tmp_path, slow=True)
        report = tmp_path / "report.md"
        main(["watch", "--trajectory", path, "--explain",
              "--output", str(report)])
        capsys.readouterr()
        md = report.read_text()
        assert "# Perf-trajectory watchdog" in md
        assert "## Regression attribution" in md
        assert "`schedule`" in md

    def test_without_flag_no_explain_output(self, capsys, tmp_path):
        path = self._series_with_profiles(tmp_path, slow=True)
        main(["watch", "--trajectory", path])
        assert "explain:" not in capsys.readouterr().out

    def test_steady_series_explains_nothing(self, capsys, tmp_path):
        path = self._series_with_profiles(tmp_path, slow=False)
        assert main(["watch", "--trajectory", path, "--explain"]) == 0
        assert "nothing regressed" in capsys.readouterr().out


class TestJobsFlag:
    @pytest.mark.parametrize("outer", [None, "3"])
    def test_cli_jobs_flag_scopes_environment(self, monkeypatch, capsys, outer):
        import json
        import os

        if outer is None:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
        else:
            monkeypatch.setenv("REPRO_JOBS", outer)
        assert main(
            ["perf", "--count", "1", "--jobs", "1", "-o", "-",
             "--no-trajectory"]
        ) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("\n{\n") + 1:])["jobs"] == 1
        assert os.environ.get("REPRO_JOBS") == outer  # scope was restored


class _ClosedStdout:
    """A stdout whose reader has gone away, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedStdout:
    """Every requested output file is written before the first byte of
    stdout, so a closed pipe fails the command (exit 2) but keeps them."""

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["perf", "--count", "2", "-o", "{report}",
              "--trajectory", "{trajectory}"], ["report", "trajectory"]),
            (["simulate", "--pes", "4", "--runs", "1", "--timeline",
              "{timeline}", "--record", "{record}", "{block}"],
             ["timeline", "record"]),
            (["schedule", "--record", "{record}", "{block}"], ["record"]),
            (["explain", "--record", "{record}", "{block}"], ["record"]),
            (["watch", "--trajectory", "{series}", "-o", "{report}"],
             ["report"]),
        ],
        ids=["perf", "simulate", "schedule", "explain", "watch"],
    )
    def test_files_survive_a_closed_stdout(
        self, monkeypatch, tmp_path, block_file, argv, files
    ):
        import sys

        paths = {
            name: tmp_path / name
            for name in ("report", "trajectory", "timeline", "record")
        }
        series = tmp_path / "series.jsonl"
        series.write_text(
            '{"wall_s": 1.0, "stages": {}, "results_digest": "d", '
            '"points": []}\n'
        )
        argv = [
            arg.format(block=block_file, series=series, **paths)
            for arg in argv
        ]
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(argv) == 2
        for name in files:
            assert paths[name].is_file(), name
