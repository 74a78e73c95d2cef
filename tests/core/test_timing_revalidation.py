"""Final revalidation re-checks only the edges insertion proved by timing.

Serialized, path and barrier discharges survive later inserts and
merges, so scanning the timing-proved edges (in real-edge order) must
find exactly the violations a scan of every edge finds.  The
differential test schedules a seeded corpus twice per config -- as
shipped, and with :func:`repro.core.validate.timing_edges` patched to
return every real edge -- and requires identical results, while the
full-scan :func:`find_violations` stays empty on every final schedule.
"""

from __future__ import annotations

import pytest

from repro.core import batchrun, scheduler
from repro.core.barrier_insert import ResolutionKind
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.core.validate import find_violations, timing_edges
from repro.perf.parallel import digest_record
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig

CONFIGS = {
    "sbm": SchedulerConfig(n_pes=8),
    "dbm": SchedulerConfig(n_pes=8, machine="dbm"),
    "sbm-optimal": SchedulerConfig(n_pes=16, insertion="optimal"),
    "dbm-optimal": SchedulerConfig(n_pes=16, machine="dbm", insertion="optimal"),
    "sbm-no-merge": SchedulerConfig(n_pes=8, merge_barriers=False),
    "dbm-merge": SchedulerConfig(n_pes=8, machine="dbm", merge_barriers=True),
    "lookahead": SchedulerConfig(n_pes=8, lookahead=2),
    "roundrobin": SchedulerConfig(n_pes=4, assignment="roundrobin"),
    "slack": SchedulerConfig(n_pes=8, serialization_slack=3),
    "latency": SchedulerConfig(n_pes=8, barrier_latency=2),
    "latency-dbm-optimal": SchedulerConfig(
        n_pes=8, machine="dbm", insertion="optimal", barrier_latency=1
    ),
}


def _corpus():
    shapes = ((12, 4), (24, 8), (40, 8))
    return [
        compile_case(GeneratorConfig(n_statements=s, n_variables=v), seed)
        for s, v in shapes
        for seed in range(6)
    ]


CORPUS = _corpus()


def _every_edge(dag, resolutions):
    return list(dag.real_edges())


def _observed(results):
    return [
        (digest_record(r), r.counts.repairs, r.counts.merges, r.n_barriers)
        for r in results
    ]


def _schedule_all(config):
    return [
        schedule_dag(case.dag, config.with_(seed=case.seed & 0xFFFFFFFF))
        for case in CORPUS
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_timing_edges_rescan_matches_full_scan(name, monkeypatch):
    config = CONFIGS[name]
    shipped = _schedule_all(config)
    for result in shipped:
        assert find_violations(result.schedule, config.insertion) == []
    monkeypatch.setattr(scheduler, "timing_edges", _every_edge)
    full = _schedule_all(config)
    assert _observed(shipped) == _observed(full)


@pytest.mark.parametrize("name", ["sbm", "dbm", "sbm-optimal", "latency"])
def test_batched_finalize_matches_full_scan(name, monkeypatch):
    """The batched driver's finalize takes the same edge lists."""
    config = CONFIGS[name]
    dags = [case.dag for case in CORPUS]
    configs = [config.with_(seed=case.seed & 0xFFFFFFFF) for case in CORPUS]
    monkeypatch.setitem(batchrun.kernels.THRESHOLDS, "batch", 1)
    shipped = batchrun.schedule_cases(dags, configs)
    for result in shipped:
        assert find_violations(result.schedule, config.insertion) == []
    monkeypatch.setattr(batchrun, "timing_edges", _every_edge)
    full = batchrun.schedule_cases(dags, configs)
    assert _observed(shipped) == _observed(full)
    assert _observed(shipped) == _observed(_schedule_all(config))


def test_some_schedules_are_repaired():
    """The corpus exercises the repair path the rescan shortcut feeds."""
    repaired = sum(r.counts.repairs for r in _schedule_all(CONFIGS["sbm"]))
    assert repaired > 0


def test_timing_edges_follow_real_edge_order():
    result = schedule_dag(CORPUS[-1].dag, CONFIGS["sbm"])
    dag = result.schedule.dag
    edges = timing_edges(dag, result.resolutions)
    proved = {
        (r.producer, r.consumer)
        for r in result.resolutions
        if r.kind is ResolutionKind.TIMING
    }
    assert set(edges) == proved and len(edges) == len(proved)
    order = {edge: k for k, edge in enumerate(dag.real_edges())}
    assert [order[e] for e in edges] == sorted(order[e] for e in edges)
