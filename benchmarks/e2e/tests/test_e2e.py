"""Tests of the end-to-end benchmark on tiny workloads, run in-process.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from benchmarks.e2e import cli, compare, harness, phases, spec
from benchmarks.e2e.ledger import Ledger
from benchmarks.e2e.spec import Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = Workload(
    "tiny",
    "two small points, four blocks",
    {"n_pes": 4},
    statements=(8, 12),
    count=6,
    blocks=4,
)


def _in_process(monkeypatch):
    """Route the harness's phase processes to in-process phase calls."""

    def spawn(request):
        return phases.run_phase(
            TINY,
            request["phase"],
            request["seed"],
            request.get("rounds", spec.ROUNDS),
            request.get("trace", False),
        )

    monkeypatch.setitem(spec.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(harness, "spawn", spawn)
    monkeypatch.setattr(harness, "time_setup", lambda workload, seed: (0.25, 50.0))


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_file_names_and_workloads():
    benchmark = spec.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {w["name"]: w["why"] for w in benchmark["workloads"]} == {
        w.name: w.why for w in spec.WORKLOADS.values()
    }
    assert [m["name"] for m in benchmark["end_to_end"]][0] == "setup_s"
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in benchmark["per_layer"]:
        assert metric["unit"] == cli.layer_unit(metric["name"])


def test_run_reports_every_metric_and_passes(monkeypatch, capsys):
    _in_process(monkeypatch)
    assert cli.main(["run", "--workload", "tiny", "--seed", "1"]) == 0
    line = _last_json(capsys)
    assert line["correct"] is True and line["failed"] == 0
    per_round = len(TINY.statements) * TINY.count + TINY.blocks
    assert line["attempted"] == spec.ROUNDS * per_round
    expected = {m["name"] for m in spec.load_benchmark()["end_to_end"]}
    assert set(line["metrics"]) == expected
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_injected_bad_result_fails_the_run(monkeypatch, capsys):
    real = phases.schedule_dag

    def drops_a_resolution(dag, config=None, heights=None):
        result = real(dag, config, heights)
        return dataclasses.replace(result, resolutions=result.resolutions[:-1])

    _in_process(monkeypatch)
    # run_corpus reaches schedule_dag through other modules, so only the
    # single blocks see the bad results.
    monkeypatch.setattr(phases, "schedule_dag", drops_a_resolution)
    assert cli.main(["run", "--workload", "tiny", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "digest_record differs from the corpus" in out
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == TINY.blocks * spec.ROUNDS
    fail_rate = re.search(r"fail_rate\s+(\S+)", out)
    assert float(fail_rate.group(1)) == pytest.approx(
        line["failed"] / line["attempted"], rel=1e-4
    )


def test_traced_run_matches_untraced_and_adds_up(monkeypatch, capsys):
    _in_process(monkeypatch)
    assert cli.main(["trace", "--workload", "tiny", "--seed", "2"]) == 0
    line = _last_json(capsys)
    assert line["correct"] is True
    assert set(line["metrics"]) == set(spec.per_layer_table(spec.load_benchmark()))

    untraced = phases.run_phase(TINY, "measure", 2, rounds=1)
    traced = phases.run_phase(TINY, "measure", 2, rounds=1, trace=True)
    assert traced["corpus"]["digest"] == untraced["corpus"]["digest"]
    metrics = harness.layer_metrics(untraced, traced)
    assert 0.95 <= metrics["trace.coverage"] <= 1.0
    layer_self = sum(
        metrics[f"{layer}.self_s"] for layer in traced["ledger"]["layers"]
    )
    wall = traced["corpus"]["timed_s"] + traced["blocks"]["timed_s"]
    assert layer_self + metrics["bench.self_s"] == pytest.approx(wall)
    assert metrics["machine.calls"] == 2 * TINY.blocks
    assert metrics["trace.missing"] == 0


def test_missing_wrap_target_is_skipped():
    from repro.core import scheduler

    original = scheduler.schedule_dag
    layers = {
        "gone": (
            "repro.no_such_module:f",
            "repro.core.scheduler:no_such_function",
            "repro.core.schedule:Schedule.no_such_method",
        ),
        "core.scheduler": ("repro.core.scheduler:schedule_dag",),
    }
    with Ledger(layers) as ledger:
        assert ledger.missing == list(layers["gone"])
        assert scheduler.schedule_dag is not original
        passes = phases.BlockPasses(TINY, 0, ledger)
        passes.run(2 * TINY.blocks)
    assert scheduler.schedule_dag is original
    assert not any(b["failures"] for b in passes.outcome()["blocks"])
    assert ledger.calls == [0, 2 * TINY.blocks]


def _judge(parent, change, better="higher", bound=0.10, exact=False):
    return compare.judge(parent, change, better, bound, exact)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_compare_needs_nine_of_ten_wins():
    nine = [p + 5 for p in PARENT[:9]] + [PARENT[9] - 1]
    assert _judge(PARENT, nine).status == "improved"
    eight = [p + 5 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert _judge(PARENT, eight).status == "flat"


def test_compare_ties_count_for_neither_side():
    nine_and_tie = [p + 5 for p in PARENT[:9]] + [PARENT[9]]
    verdict = _judge(PARENT, nine_and_tie)
    assert (verdict.wins, verdict.losses, verdict.ties) == (9, 0, 1)
    assert verdict.status == "improved"
    eight_and_ties = [p + 5 for p in PARENT[:8]] + PARENT[8:]
    assert _judge(PARENT, eight_and_ties).status == "flat"
    assert _judge(PARENT, list(PARENT)).status == "flat"


def test_compare_regressed_unresolved_and_too_few():
    assert _judge(PARENT, [p * 0.8 for p in PARENT]).status == "regressed"
    assert _judge(PARENT, [p * 0.8 for p in PARENT], "lower").status == "improved"
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert _judge(wide, list(wide)).status == "unresolved"
    assert _judge(wide, [v + 1000 for v in wide]).status == "improved"
    assert _judge(PARENT[:9], PARENT[:9]).status == "too few pairs"


def test_compare_exact_metric_regresses_on_any_worsening():
    # Same seed on both sides: the parent's runs agree exactly.
    parent = [44.41] * 10
    worse = [v * 1.03 for v in parent]
    verdict = _judge(parent, worse, "lower", bound=0.20, exact=True)
    assert verdict.status == "regressed"
    # Without exactness a 3% worsening sits inside a 20% bound.
    assert _judge(parent, worse, "lower", bound=0.20).status == "flat"
    one_seed_worse = parent[:9] + [parent[9] * 1.001]
    assert _judge(parent, one_seed_worse, "lower", 0.20, exact=True).status == "regressed"
    assert _judge(parent, list(parent), "lower", 0.20, exact=True).status == "flat"
    better = [v * 0.97 for v in parent]
    assert _judge(parent, better, "lower", 0.20, exact=True).status == "improved"


def _write_runs(directory, values, rounds=3, barriers=9.45):
    directory.mkdir()
    for i, value in enumerate(values):
        metrics = {
            "cases_per_s": value,
            "fail_rate": 0.0,
            "barriers_per_case": barriers,
        }
        data = {"seed": 0, "workloads": {"paper8": {"rounds": rounds, "metrics": metrics}}}
        (directory / f"run-{i:02d}.json").write_text(json.dumps(data))


def test_compare_reads_run_directories(tmp_path):
    _write_runs(tmp_path / "parent", PARENT)
    _write_runs(tmp_path / "change", [p * 0.7 for p in PARENT], barriers=9.6)
    table = spec.end_to_end_table(spec.load_benchmark())
    lines, verdicts = compare.compare(tmp_path / "parent", tmp_path / "change", table)
    assert verdicts[("paper8", "cases_per_s")].status == "regressed"
    assert verdicts[("paper8", "barriers_per_case")].status == "regressed"
    assert verdicts[("paper8", "fail_rate")].status == "flat"
    assert any(line.strip().startswith("paper8") for line in lines)


def test_compare_refuses_runs_with_other_round_counts(tmp_path):
    _write_runs(tmp_path / "parent", PARENT)
    _write_runs(tmp_path / "change", PARENT, rounds=4)
    table = spec.end_to_end_table(spec.load_benchmark())
    _, verdicts = compare.compare(tmp_path / "parent", tmp_path / "change", table)
    assert {v.status for v in verdicts.values()} == {compare.UNPAIRED}
