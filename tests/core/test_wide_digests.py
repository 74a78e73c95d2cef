"""Pinned results digests of small 1024-PE corpora.

At 1024 PEs a block uses a dozen PEs, so the step-[2] tie set is mostly
idle PEs and every random tie-break draws from it.  The digests below
were captured before per-PE schedule state became sparse; any drift in
tie order, RNG draws or lookahead diversion shows up here on both
paths, which a python-vs-numpy comparison alone would miss.  The
python path runs with numpy patched out; the numpy path lowers every
kernel threshold to 1, so each pin also runs through the ``assign``,
``genvec`` and ``batch`` kernels.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs.metrics import collect_metrics
from repro.obs.provenance import collect_provenance
from repro.perf.parallel import results_digest
from repro.synth.corpus import generate_cases
from repro.synth.generator import GeneratorConfig

#: name -> (n_statements, master_seed, scheduler overrides, digest);
#: every point is 4 cases on 1024 PEs.
WIDE_PINS: dict[str, tuple[int, int, dict, str]] = {
    "list": (
        40, 17, {},
        "a6595842c608fd68fb23d607f41e18f3ce48c00506ffce19ef53dfc6d26a71b1",
    ),
    "slack2": (
        40, 17, {"serialization_slack": 2},
        "3b35123957a0bc7892d8acacb62a83b30a124c0dd3e38b6d4121290f9921f4f2",
    ),
    # At 40 statements / seed 17 lookahead never diverts; this point
    # diverts once (see test_lookahead_point_diverts).
    "lookahead4": (
        30, 4, {"lookahead": 4},
        "0395789abba3c719010975c2a07d9f70f80496450ed8bf6a644460334b19c69b",
    ),
    "roundrobin": (
        40, 17, {"assignment": "roundrobin"},
        "85b6508d6e659042ffe7406bb679ded1428290811a11148307de92106305c903",
    ),
    "dbm_optimal": (
        40, 17, {"machine": "dbm", "insertion": "optimal"},
        "ecfee68e8fe04070f7f0d2baad50413262802a312affd4a1f576648503606af1",
    ),
    "latency2": (
        40, 17, {"barrier_latency": 2},
        "d3901f34ef2726672e4dc8268354f4311db3ef846f64f8b645be9db73713e10a",
    ),
}


def wide_point(name: str) -> ExperimentPoint:
    n_statements, master_seed, overrides, _ = WIDE_PINS[name]
    return ExperimentPoint(
        generator=GeneratorConfig(n_statements=n_statements, n_variables=8),
        scheduler=SchedulerConfig(n_pes=1024, **overrides),
        count=4,
        master_seed=master_seed,
    )


def use_path(request, backend: str) -> None:
    """Take the python path (numpy patched out), or engage the numpy
    kernels on every call, however small."""
    if backend == "python":
        request.getfixturevalue("no_numpy")
        return
    pytest.importorskip("numpy")
    monkeypatch = request.getfixturevalue("monkeypatch")
    for kernel in kernels.THRESHOLDS:
        monkeypatch.setitem(kernels.THRESHOLDS, kernel, 1)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("name", sorted(WIDE_PINS))
def test_wide_digest_pinned(name, backend, request):
    use_path(request, backend)
    with collect_metrics() as metrics:
        results = run_corpus(wide_point(name), jobs=1)
    assert results_digest(results) == WIDE_PINS[name][3]
    dispatched = {
        key.split(".")[2]
        for key in metrics.as_dict()["counters"]
        if key.startswith("kernels.calls.") and key.endswith(".numpy")
    }
    expected = set()
    if backend == "numpy":
        expected = set(kernels.THRESHOLDS)
        if name == "roundrobin":
            expected.discard("assign")  # round-robin never runs step [2]
    assert dispatched == expected


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_wide_digest_pinned_under_cross_checks(backend, request, monkeypatch):
    """Every incremental view, and step [2] and the lookahead divert on
    the path this backend takes (the idle classes on python, the numpy
    kernel on numpy), is checked against its dense reference while the
    pinned digest reproduces."""
    use_path(request, backend)
    monkeypatch.setenv("REPRO_CHECK_INCREMENTAL", "1")
    monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
    with collect_metrics() as metrics:
        results = run_corpus(wide_point("lookahead4"), jobs=1)
    assert results_digest(results) == WIDE_PINS["lookahead4"][3]
    counters = metrics.as_dict()["counters"]
    assert counters.get(f"kernels.calls.assign.{backend}", 0) > 0
    assert counters.get("kernels.check.checked", 0) > 0
    assert counters.get("views.check.checked", 0) > 0
    assert counters.get("kernels.check.mismatches", 0) == 0
    assert counters.get("views.check.mismatches", 0) == 0


def test_lookahead_point_diverts():
    """The lookahead pin is only meaningful if a placement is diverted."""
    point = wide_point("lookahead4")
    rules = []
    for case in generate_cases(point.generator, point.count, point.master_seed):
        config = point.scheduler.with_(seed=case.seed & 0xFFFFFFFF)
        with collect_provenance() as rec:
            schedule_dag(case.dag, config)
        rules.extend(d.rule for d in rec.assignments.values())
    assert "lookahead-divert" in rules
