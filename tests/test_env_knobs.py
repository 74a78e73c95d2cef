"""The program's environment surface: two ``REPRO_*`` variables.

``REPRO_CHECK`` arms every cross-check (each kernel call against its
python reference, each schedule mutation against a scratch rebuild)
and ``REPRO_JOBS`` sets the corpus driver's worker count.  No module
of the package reads, or names, any other.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs.metrics import MetricsRegistry, collect_metrics
from repro.synth.generator import GeneratorConfig

POINT = ExperimentPoint(
    generator=GeneratorConfig(n_statements=15, n_variables=6),
    scheduler=SchedulerConfig(n_pes=4),
    count=2,
    master_seed=3,
)


def _checked_run(monkeypatch, value: str) -> MetricsRegistry:
    monkeypatch.setenv("REPRO_CHECK", value)
    with collect_metrics() as reg:
        run_corpus(POINT, jobs=1)
    return reg


def test_env_knobs_are_check_and_jobs():
    names: set[str] = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert names == {"REPRO_CHECK", "REPRO_JOBS"}


def test_check_arms_both_cross_checks(monkeypatch):
    """One variable, both checks: the schedule views and the kernels."""
    pytest.importorskip("numpy")
    reg = _checked_run(monkeypatch, "1")
    assert reg.counter("views.check.checked") > 0
    assert reg.counter("kernels.check.checked") > 0
    assert reg.counter("views.check.mismatches") == 0
    assert reg.counter("kernels.check.mismatches") == 0


def test_check_zero_arms_neither(monkeypatch):
    reg = _checked_run(monkeypatch, "0")
    assert reg.counter("views.check.checked") == 0
    assert reg.counter("kernels.check.checked") == 0
