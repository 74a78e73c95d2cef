"""Kernel dispatch rule and python/numpy parity (:mod:`repro.kernels`).

The pure-python loops are the specification; the numpy kernels are
accelerators that must be bit-identical.  These tests pin

* the dispatch rule: a kernel engages when numpy imports and the call
  reaches its size threshold, or check mode is on; there is no
  user-set backend;
* corpus ``results_digest`` parity between the python path (numpy
  patched out) and the kernels -- with ``REPRO_CHECK=1`` forcing
  every kernel on (so small corpora actually exercise them) while
  every schedule mutation is also checked against a scratch rebuild;
* that such a corpus run reaches every kernel :data:`THRESHOLDS` names.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.cli import main
from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs.metrics import collect_metrics
from repro.perf.parallel import results_digest
from repro.synth.generator import GeneratorConfig

from tests.conftest import without_numpy


def corpus_digest(n_pes=8, n_statements=24, count=6, master_seed=11):
    point = ExperimentPoint(
        generator=GeneratorConfig(n_statements=n_statements, n_variables=8),
        scheduler=SchedulerConfig(n_pes=n_pes),
        count=count,
        master_seed=master_seed,
    )
    return results_digest(run_corpus(point, jobs=1))


class TestDispatchPolicy:
    def test_without_numpy_no_kernel_engages(self, monkeypatch, no_numpy):
        for check in ("0", "1"):
            monkeypatch.setenv("REPRO_CHECK", check)
            for kernel in kernels.THRESHOLDS:
                assert not kernels.use_numpy(kernel, 10**6)
        assert kernels.resolved_backend() == "python"
        assert kernels.kernels_info()["resolved"] == "python"

    def test_thresholds_gate_each_kernel(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        for kernel, threshold in kernels.THRESHOLDS.items():
            assert not kernels.use_numpy(kernel, threshold - 1)
            assert kernels.use_numpy(kernel, threshold)
        assert kernels.resolved_backend() == "numpy"

    def test_check_mode_overrides_thresholds(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_CHECK", "1")
        for kernel in kernels.THRESHOLDS:
            assert kernels.use_numpy(kernel, 1)

    @pytest.mark.parametrize(
        "command", [["perf"], ["experiment", "fig15"]], ids=["perf", "experiment"]
    )
    def test_backend_flag_is_an_argparse_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--count", "1", "--backend", "python"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_kernels_info_shape(self):
        info = kernels.kernels_info()
        assert set(info) == {"resolved", "checking", "thresholds", "calls"}
        assert info["resolved"] in ("python", "numpy")
        assert info["thresholds"] == kernels.THRESHOLDS
        assert isinstance(info["calls"], dict)

    def test_count_tallies_module_and_registry(self):
        kernels.reset_calls()
        with collect_metrics() as metrics:
            for backend in ("numpy", "python", "numpy"):
                with kernels.timed("assign", backend):
                    pass
        calls = kernels.kernels_info()["calls"]
        assert calls["kernels.calls.assign.numpy"] == 2
        assert calls["kernels.calls.assign.python"] == 1
        counters = metrics.as_dict()["counters"]
        assert counters["kernels.calls.assign.numpy"] == 2
        kernels.reset_calls()
        assert kernels.kernels_info()["calls"] == {}

    def test_verify_counts_and_raises_on_mismatch(self):
        with collect_metrics() as metrics:
            kernels.verify("merge", [1, 2], [1, 2])
            with pytest.raises(AssertionError, match="cross-check"):
                kernels.verify("merge", [1, 2], [1, 3])
        counters = metrics.as_dict()["counters"]
        assert counters["kernels.check.checked"] == 2
        assert counters["kernels.check.mismatches"] == 1


class TestDigestParity:
    """Scheduling results must be bit-identical with and without numpy."""

    def test_forced_kernels_match_python(self, monkeypatch):
        pytest.importorskip("numpy")
        with without_numpy():
            baseline = corpus_digest()
        # Check mode forces every kernel on AND cross-checks each call
        # against the python implementation in-line.
        monkeypatch.setenv("REPRO_CHECK", "1")
        with collect_metrics() as metrics:
            checked = corpus_digest()
        assert checked == baseline
        counters = metrics.as_dict()["counters"]
        assert counters.get("kernels.check.checked", 0) > 0
        assert counters.get("kernels.check.mismatches", 0) == 0

    def test_check_mode_reaches_exactly_the_threshold_kernels(
        self, monkeypatch
    ):
        # Check mode forces every reachable kernel onto numpy, so an
        # entry missing from the dispatched set is a stale threshold,
        # and an extra kernel is one the table does not list.
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_CHECK", "1")
        kernels.reset_calls()
        corpus_digest()
        dispatched = {
            key.split(".")[2]
            for key, n in kernels.kernels_info()["calls"].items()
            if key.endswith(".numpy") and n
        }
        assert dispatched == set(kernels.THRESHOLDS)

    def test_forced_kernels_match_python_with_incremental_checks(
        self, monkeypatch
    ):
        pytest.importorskip("numpy")
        with without_numpy():
            baseline = corpus_digest(n_statements=30, count=4, master_seed=3)
        # The one switch also verifies every schedule mutation.
        monkeypatch.setenv("REPRO_CHECK", "1")
        with collect_metrics() as metrics:
            checked = corpus_digest(n_statements=30, count=4, master_seed=3)
        assert checked == baseline
        assert metrics.counter("views.check.checked") > 0

    def test_natural_threshold_crossing_matches_python(self, monkeypatch):
        # The assign kernel is sized by step-[2] candidates (active PEs
        # plus the idle class), which stay below the shipped threshold
        # here; lowered, the threshold is crossed without check mode, and
        # the vectorized scan must draw identical tie-break choices.
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        monkeypatch.setitem(kernels.THRESHOLDS, "assign", 4)
        with without_numpy():
            baseline = corpus_digest(n_pes=128, n_statements=40, count=4)
        kernels.reset_calls()
        assert corpus_digest(n_pes=128, n_statements=40, count=4) == baseline
        calls = kernels.kernels_info()["calls"]
        assert calls.get("kernels.calls.assign.numpy", 0) > 0
