"""The metrics registry: counters, histograms, and worker merging."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    HistogramStat,
    MetricsRegistry,
    add_to_current,
    collect_metrics,
    current_registry,
    inc,
    observe,
)


class TestRegistry:
    def test_noop_without_registry(self):
        assert current_registry() is None
        inc("scheduler.barriers_inserted")
        observe("views.refire_cone", 3)

    def test_counters_and_histograms(self):
        with collect_metrics() as m:
            inc("a", 2)
            inc("a")
            observe("h", 1.0)
            observe("h", 3.0)
        assert m.counter("a") == 3
        assert m.counter("missing") == 0
        h = m.histograms["h"]
        assert (h.count, h.total, h.min, h.max) == (2, 4.0, 1.0, 3.0)
        assert h.mean == pytest.approx(2.0)

    def test_registries_nest_innermost_wins(self):
        with collect_metrics() as outer:
            with collect_metrics() as inner:
                inc("x")
        assert inner.counter("x") == 1
        assert outer.counter("x") == 0

    def test_dict_round_trip(self):
        with collect_metrics() as m:
            inc("c", 5)
            observe("h", 2.5)
        clone = MetricsRegistry.from_dict(m.as_dict())
        assert clone.as_dict() == m.as_dict()


def _registry(counters: dict, observations: dict) -> MetricsRegistry:
    reg = MetricsRegistry()
    for name, n in counters.items():
        reg.inc(name, n)
    for name, values in observations.items():
        for value in values:
            reg.observe(name, value)
    return reg


class TestMerging:
    """Worker results must merge associatively and commutatively: the
    parallel driver consumes chunks in submission order, but nothing in
    the aggregate may depend on which worker finished first."""

    WORKERS = [
        ({"a": 1, "b": 2}, {"h": [1.0, 5.0]}),
        ({"a": 10}, {"h": [0.5], "g": [7.0]}),
        ({"b": 3, "c": 4}, {}),
    ]

    def test_merge_order_invariance(self):
        import itertools

        reference = None
        for perm in itertools.permutations(self.WORKERS):
            total = MetricsRegistry()
            for counters, obs in perm:
                total.merge_from(_registry(counters, obs))
            if reference is None:
                reference = total.as_dict()
            assert total.as_dict() == reference
        assert reference["counters"] == {"a": 11, "b": 5, "c": 4}
        assert reference["histograms"]["h"]["count"] == 3
        assert reference["histograms"]["h"]["min"] == 0.5
        assert reference["histograms"]["h"]["max"] == 5.0

    def test_merge_associativity(self):
        regs = [_registry(c, o) for c, o in self.WORKERS]
        left = MetricsRegistry()
        left.merge_from(regs[0])
        left.merge_from(regs[1])
        left.merge_from(regs[2])
        ab = MetricsRegistry()
        ab.merge_from(regs[1])
        ab.merge_from(regs[2])
        right = MetricsRegistry()
        right.merge_from(regs[0])
        right.merge_from(ab)
        assert left.as_dict() == right.as_dict()

    def test_merge_from_mapping_matches_registry(self):
        """Workers ship ``as_dict()`` payloads; merging the mapping must
        equal merging the live registry."""
        reg = _registry({"a": 2}, {"h": [4.0]})
        via_obj = MetricsRegistry()
        via_obj.merge_from(reg)
        via_map = MetricsRegistry()
        via_map.merge_from(reg.as_dict())
        assert via_obj.as_dict() == via_map.as_dict()

    def test_add_to_current(self):
        add_to_current({"counters": {"x": 1}, "histograms": {}})  # dropped
        with collect_metrics() as m:
            add_to_current(_registry({"x": 2}, {"h": [1.0]}).as_dict())
        assert m.counter("x") == 2
        assert m.histograms["h"].count == 1


class TestPipelineCounters:
    def _schedule_one(self):
        from repro.core.scheduler import SchedulerConfig, schedule_dag
        from repro.ir import compile_source
        from repro.synth.generator import GeneratorConfig, generate_block

        source = generate_block(GeneratorConfig(n_statements=18), 7).source()
        return schedule_dag(compile_source(source), SchedulerConfig(n_pes=4))

    def test_scheduler_counters_populated(self):
        with collect_metrics() as m:
            result = self._schedule_one()
        barriers = [b for b in result.schedule.barriers() if not b.is_initial]
        inserted = m.counter("scheduler.barriers_inserted")
        assert inserted >= len(barriers) > 0  # merges only remove barriers
        assert m.counter("views.dag.evolved") > 0
        assert m.counter("merge.verdict.recomputed") > 0

    def test_cross_check_outcomes_surfaced(self, monkeypatch):
        """A REPRO_CHECK run reports how much it verified (views
        checked / mismatches) through the obs registry instead of
        passing silently."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        with collect_metrics() as m:
            self._schedule_one()
        assert m.counter("views.check.checked") > 0
        assert m.counter("views.check.mismatches") == 0

    def test_cross_check_silent_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        with collect_metrics() as m:
            self._schedule_one()
        assert m.counter("views.check.checked") == 0


class TestHistogramStat:
    def test_merge_empty_identity(self):
        h = HistogramStat()
        h.observe(2.0)
        empty = HistogramStat()
        h.merge_from(empty)
        assert (h.count, h.total) == (1, 2.0)
        empty.merge_from(h)
        assert empty.as_dict() == h.as_dict()
