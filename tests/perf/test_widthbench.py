"""Machine-width gate: points, record shape, exit codes.

The <=1.5x CI threshold is a performance property of the CI machine and
is asserted there; these tests pin the harness -- which points are
timed, what the record holds, and that the gate fails loudly.  A tiny
run (2 cases, one repetition) stands in for the CI shape.
"""

import pytest

from repro.perf import widthbench


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(widthbench, "COUNT", 2)
    monkeypatch.setattr(widthbench, "REPS", 1)


def test_gate_points():
    points = widthbench.gate_points()
    assert [p.generator.n_statements for p in points] == [40, 60, 80]
    assert {p.scheduler.n_pes for p in points} == {1024}
    assert {p.count for p in points} == {50}
    assert {p.master_seed for p in points} == {0}


def test_record(tiny):
    record = widthbench.bench_width()
    assert [p["n_pes"] for p in record["points"]] == [1024] * 3
    assert 0 < record["widest_case_pes"] < 32
    assert record["wide_s"] > 0 and record["narrow_s"] > 0
    assert record["ratio"] == record["wide_s"] / record["narrow_s"]


def test_ratio_miss_exits_nonzero(tiny, monkeypatch, capsys):
    monkeypatch.setattr(widthbench, "MAX_RATIO", 0.0001)
    assert widthbench.main() == 1
    assert "width-gate" in capsys.readouterr().err


def test_too_narrow_machine_exits_nonzero(tiny, monkeypatch, capsys):
    # A 1-PE "narrow" machine cannot hold the same corpus.
    monkeypatch.setattr(widthbench, "NARROW_PES", 1)
    assert widthbench.main() == 1
    assert "not the same corpus" in capsys.readouterr().err


def test_generous_ratio_passes(tiny, monkeypatch, capsys):
    monkeypatch.setattr(widthbench, "MAX_RATIO", 1000.0)
    assert widthbench.main() == 0
    assert "ratio" in capsys.readouterr().out


def test_any_argument_exits_2_without_running(monkeypatch, capsys):
    def boom():
        raise AssertionError("the gate ran")

    monkeypatch.setattr(widthbench, "bench_width", boom)
    assert widthbench.main(["--max-ratio", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.perf.widthbench")
    assert len(err.strip().splitlines()) == 1
