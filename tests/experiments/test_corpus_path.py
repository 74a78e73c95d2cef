"""One corpus path: every corpus experiment runs through ``run_corpus``.

Each experiment below compiles and schedules a generated corpus, so
``REPRO_JOBS`` (``experiment --jobs``) must reach it: under
``REPRO_JOBS=2`` the corpus driver creates a fork pool, and the render
is byte-identical to the serial one.  The fault campaigns inside the
hybrid study run in-process: a pool per short campaign costs more than
it saves.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import (
    figure14_scatter,
    figure18_vliw,
    hybrid_experiment,
    merging_experiment,
    optimal_vs_conservative,
    robustness_experiment,
    sync_elimination_experiment,
)
from repro.faults import campaign
from repro.perf import parallel
from repro.perf.parallel import fork_available

#: Tiny-size calls of the corpus experiments.
EXPERIMENTS = {
    "fig14": lambda: figure14_scatter(count=3),
    "fig18": lambda: figure18_vliw(
        count=3, values=(2, 8), n_statements=20, n_variables=5
    ),
    "merging": lambda: merging_experiment(count=3, n_runs=1),
    "optimal": lambda: optimal_vs_conservative(count=3),
    "syncelim": lambda: sync_elimination_experiment(count=3, n_statements=20),
    "robustness": lambda: robustness_experiment(
        count=3, epsilons=(0.0, 0.25), runs=2, n_statements=15
    ),
    "hybrid": lambda: hybrid_experiment(
        count=4, epsilons=(0.25,), stragglers=(), runs=3, n_statements=15
    ),
}


def _counting_pool(created: list[int]):
    """A ``ProcessPoolExecutor`` that appends to ``created`` per pool."""

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            created.append(1)
            super().__init__(*args, **kwargs)

    return CountingPool


@pytest.mark.skipif(not fork_available(), reason="no fork start method")
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_jobs_reach_the_corpus(name, monkeypatch):
    driver: list[int] = []
    campaigns: list[int] = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _counting_pool(driver))
    monkeypatch.setattr(
        campaign, "ProcessPoolExecutor", _counting_pool(campaigns)
    )
    renders = {}
    for jobs in ("1", "2"):
        monkeypatch.setenv("REPRO_JOBS", jobs)
        renders[jobs] = EXPERIMENTS[name]().render()
        if jobs == "1":
            assert not driver, "a serial run created a pool"
    assert renders["2"] == renders["1"]
    assert driver, "REPRO_JOBS=2 did not reach the corpus driver"
    assert not campaigns, "a fault campaign created its own pool"
