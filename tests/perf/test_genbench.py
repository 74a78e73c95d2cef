"""Generator speed gate: shape discovery, identity checking, exit codes.

The actual >=3x CI threshold is a performance property of the CI
machine and is asserted there, not here; these tests pin the harness
-- which shapes are benchmarked, that both arms compile identical
corpora, and that the gate fails loudly on a ratio miss.  A tiny run
(the ``scale1024`` shapes, 16 seeds, one repetition) stands in for the
CI shape.
"""

import pytest

from repro import kernels
from repro.perf import genbench
from repro.perf.genbench import bench_generate, generator_shapes, main


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(genbench, "PRESET", "scale1024")
    monkeypatch.setattr(genbench, "COUNT", 16)
    monkeypatch.setattr(genbench, "REPS", 1)


class TestGeneratorShapes:
    def test_paper3500_dedupes_to_size_sweep(self):
        shapes = generator_shapes("paper3500")
        # The PE-sweep and ablation legs reuse size-sweep generators;
        # only the distinct n_statements values remain.
        assert [c.n_statements for c in shapes] == [
            10, 15, 20, 25, 30, 35, 40, 50, 60, 80,
        ]
        assert all(c.n_variables == 8 for c in shapes)

    def test_scale1024_shapes(self):
        assert [c.n_statements for c in generator_shapes("scale1024")] == [
            40, 60, 80,
        ]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown perf preset"):
            generator_shapes("nope")


class TestBenchGenerate:
    def test_arms_compile_identical_corpora(self, tiny):
        record = bench_generate()
        assert record["identical"]
        assert record["preset"] == "scale1024"
        assert record["count"] == 16
        assert record["reps"] == 1
        assert len(record["shapes"]) == 3
        assert record["python_s"] > 0 and record["vectorized_s"] > 0
        assert record["ratio"] > 0

    def test_python_backend_refused(self, tiny, no_numpy):
        # Comparing python against itself would gate nothing; the
        # bench must refuse rather than silently pass or fail.
        kernels.reset_calls()
        with pytest.raises(RuntimeError, match="python path"):
            bench_generate()


class TestMain:
    def test_ratio_miss_exits_nonzero(self, tiny, monkeypatch, capsys):
        # An impossible threshold must fail the gate.
        monkeypatch.setattr(genbench, "MIN_RATIO", 1000.0)
        assert main() == 1
        captured = capsys.readouterr()
        assert "generate-gate" in captured.err

    def test_trivial_threshold_passes(self, tiny, monkeypatch, capsys):
        monkeypatch.setattr(genbench, "MIN_RATIO", 0.0001)
        assert main() == 0
        assert "speedup" in capsys.readouterr().out

    def test_ci_shape_is_the_paper_preset(self):
        assert genbench.PRESET == "paper3500"
        assert genbench.COUNT == 100
        assert genbench.REPS == 3
        assert genbench.MIN_RATIO == 3.0


class TestCommandLine:
    def test_any_argument_exits_2_without_running(self, monkeypatch, capsys):
        def boom():
            raise AssertionError("the gate ran")

        monkeypatch.setattr(genbench, "bench_generate", boom)
        assert main(["--min-ratio", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.perf.genbench")
        assert len(err.strip().splitlines()) == 1
