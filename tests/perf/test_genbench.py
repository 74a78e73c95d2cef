"""Generator speed gate: shape discovery, identity checking, exit codes.

The actual >=3x CI threshold is a performance property of the CI
machine and is asserted there, not here; these tests pin the harness
-- which shapes are benchmarked, that both arms compile identical
corpora, and that the gate fails loudly on a ratio miss.
"""

import pytest

from repro import kernels
from repro.perf.genbench import bench_generate, generator_shapes, main


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
    def test_arms_compile_identical_corpora(self):
        record = bench_generate(preset="scale1024", count=16, reps=1)
        assert record["identical"]
        assert record["count"] == 16
        assert len(record["shapes"]) == 3
        assert record["python_s"] > 0 and record["vectorized_s"] > 0
        assert record["ratio"] > 0

    def test_python_backend_refused(self, no_numpy):
        # Comparing python against itself would gate nothing; the
        # bench must refuse rather than silently pass or fail.
        kernels.reset_calls()
        with pytest.raises(RuntimeError, match="python path"):
            bench_generate(preset="scale1024", count=16, reps=1)


class TestMain:
    def test_ratio_miss_exits_nonzero(self, capsys):
        # An impossible threshold must fail the gate.
        code = main(
            [
                "--preset", "scale1024", "--count", "16",
                "--reps", "1", "--min-ratio", "1000",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "generate-gate" in captured.err

    def test_trivial_threshold_passes(self, capsys):
        code = main(
            [
                "--preset", "scale1024", "--count", "16",
                "--reps", "1", "--min-ratio", "0.0001",
            ]
        )
        assert code == 0
        assert "speedup" in capsys.readouterr().out
