"""The hierarchical span tracer: nesting, events, export, adoption."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.export import (
    to_chrome_trace,
    trace_events,
    write_jsonl,
    write_trace,
)
from repro.obs.spans import (
    NOOP,
    SpanTracer,
    collect_trace,
    current_tracer,
    event,
    span,
)


class TestSpanRecording:
    def test_noop_without_tracer(self):
        # Zero-cost contract: no subscriber means no recording and no error.
        assert current_tracer() is None
        with span("schedule", foo=1):
            event("engine.release")

    def test_idle_span_is_one_shared_noop(self):
        # No tracer: every call hands back the same object, which
        # records nothing anywhere.
        assert current_tracer() is None
        first = span("dom.evolved")
        assert span("paths.klp", u=1) is first is NOOP
        with first:
            with span("inner"):
                pass

    def test_nesting_reconstructed_via_parents(self):
        with collect_trace() as tracer:
            with span("outer"):
                with span("inner.a"):
                    pass
                with span("inner.b"):
                    pass
            with span("root2"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        outer, root2 = by_name["outer"], by_name["root2"]
        assert outer.parent is None and outer.depth == 0
        assert root2.parent is None
        assert by_name["inner.a"].parent == outer.id
        assert by_name["inner.b"].parent == outer.id
        assert by_name["inner.a"].depth == 1
        tree = tracer.children()
        assert {s.name for s in tree[None]} == {"outer", "root2"}
        assert {s.name for s in tree[outer.id]} == {"inner.a", "inner.b"}

    def test_span_timing_containment(self):
        with collect_trace() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        inner = tracer.named("inner")[0]
        outer = tracer.named("outer")[0]
        assert outer.ts_us <= inner.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1.0

    def test_instant_events_and_args(self):
        with collect_trace() as tracer:
            with span("schedule", pes=4):
                event("engine.release", barrier=3)
        assert tracer.named("schedule")[0].args == {"pes": 4}
        (ev,) = tracer.events
        assert ev.name == "engine.release" and ev.args == {"barrier": 3}

    def test_tracers_nest_innermost_wins(self):
        with collect_trace() as outer:
            with collect_trace() as inner:
                with span("generate"):
                    pass
        assert [s.name for s in inner.spans] == ["generate"]
        assert outer.spans == []


class TestAdopt:
    def _worker_state(self):
        worker = SpanTracer()
        worker.pid = 99999  # pretend it is another process
        with_sid = worker.open("schedule")
        inner = worker.open("insert")
        worker.close(inner)
        worker.close(with_sid)
        worker.instant("engine.release", {"barrier": 1})
        return worker.export_state()

    def test_adopt_preserves_parent_links_and_shifts_ids(self):
        parent = SpanTracer()
        own = parent.open("sweep")
        parent.close(own)
        parent.adopt(self._worker_state())
        names = {s.name: s for s in parent.spans}
        assert names["insert"].parent == names["schedule"].id
        assert names["schedule"].parent is None
        ids = [s.id for s in parent.spans]
        assert len(ids) == len(set(ids)), "adopted ids must not collide"
        assert parent.events[0].name == "engine.release"

    def test_adopt_rebases_onto_parent_timeline(self):
        state = self._worker_state()
        parent = SpanTracer()
        # Simulate a worker whose wall clock anchor is 1s after the parent's.
        state = dict(state, wall_epoch=parent.wall_epoch + 1.0)
        parent.adopt(state)
        sched = [s for s in parent.spans if s.name == "schedule"][0]
        assert sched.ts_us >= 1e6  # shifted ~1s forward

    def test_adopt_twice_keeps_ids_disjoint(self):
        parent = SpanTracer()
        parent.adopt(self._worker_state())
        parent.adopt(self._worker_state())
        ids = [s.id for s in parent.spans]
        assert len(ids) == len(set(ids))


class TestExport:
    def _traced(self):
        with collect_trace() as tracer:
            with span("schedule", pes=8):
                with span("insert"):
                    pass
            event("engine.release", barrier=0)
        return tracer

    def test_chrome_trace_schema(self):
        tracer = self._traced()
        doc = to_chrome_trace(tracer)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"schedule", "insert"}
        assert [e["name"] for e in instants] == ["engine.release"]
        for e in complete:
            for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
                assert key in e
        for e in instants:
            assert e["s"] == "t"
            assert "dur" not in e
        # Nesting metadata travels in args for machine consumers.
        insert = [e for e in complete if e["name"] == "insert"][0]
        sched = [e for e in complete if e["name"] == "schedule"][0]
        assert insert["args"]["parent_id"] == sched["args"]["span_id"]
        # Chrome trace must be plain JSON.
        json.dumps(doc)

    def test_events_sorted_by_timestamp(self):
        tracer = self._traced()
        ts = [e["ts"] for e in trace_events(tracer)]
        assert ts == sorted(ts)

    def test_jsonl_round_trip(self):
        tracer = self._traced()
        buf = io.StringIO()
        write_jsonl(tracer, buf)
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        spans = [r for r in records if r["kind"] == "span"]
        events = [r for r in records if r["kind"] == "event"]
        assert {r["name"] for r in spans} == {"schedule", "insert"}
        assert [r["name"] for r in events] == ["engine.release"]
        by_name = {r["name"]: r for r in spans}
        assert by_name["insert"]["parent"] == by_name["schedule"]["id"]
        # A JSONL dump round-trips through export_state/adopt.
        fresh = SpanTracer()
        fresh.adopt(
            {
                "wall_epoch": fresh.wall_epoch,
                "spans": spans,
                "events": events,
            }
        )
        assert {s.name for s in fresh.spans} == {"schedule", "insert"}

    def test_write_trace_selects_format_by_suffix(self, tmp_path):
        tracer = self._traced()
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        write_trace(tracer, str(chrome))
        write_trace(tracer, str(jsonl))
        assert "traceEvents" in json.loads(chrome.read_text())
        first = json.loads(jsonl.read_text().splitlines()[0])
        assert first["kind"] == "span"


class TestPipelineIntegration:
    def test_stage_spans_nest_inner_operations(self, small_result_traced):
        tracer, _ = small_result_traced
        sched = tracer.named("schedule")
        assert len(sched) == 1
        tree = tracer.children()
        nested = {s.name for s in tree.get(sched[0].id, [])}
        assert "insert" in nested
        assert "merge" in nested

    def test_evolved_views_traced_under_insert(self, small_result_traced):
        tracer, _ = small_result_traced
        names = {s.name for s in tracer.spans}
        assert "dag.evolved_insert" in names
        assert "dom.evolved" in names
        # Every inner span has a containing stage span.
        roots = {s.name for s in tracer.children()[None]}
        assert roots <= {"generate", "schedule", "simulate"}


@pytest.fixture
def small_result_traced():
    from repro.core.scheduler import SchedulerConfig, schedule_dag
    from repro.ir import compile_source
    from repro.perf.timers import stage
    from repro.synth.generator import GeneratorConfig, generate_block

    source = generate_block(GeneratorConfig(n_statements=16), 5).source()
    with collect_trace() as tracer:
        with stage("generate"):
            dag = compile_source(source)
        with stage("schedule"):
            result = schedule_dag(dag, SchedulerConfig(n_pes=4))
    return tracer, result
