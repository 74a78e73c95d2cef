"""The live progress stream: heartbeat throttling, ETA math, the two
CLI sinks, and the perf run that advances the meter it is handed."""

from __future__ import annotations

import io
import json

from repro.obs.progress import (
    JSONLSink,
    ProgressMeter,
    TTYStatusSink,
    format_status,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestProgressMeter:
    def test_throttles_to_interval(self):
        clock = FakeClock()
        beats: list[dict] = []
        meter = ProgressMeter(beats.append, interval_s=1.0, clock=clock)
        meter.set_total(100)
        meter.advance()  # first advance emits (last_emit starts at -inf)
        for _ in range(50):
            meter.advance()  # same instant: all suppressed
        assert len(beats) == 1
        clock.t = 1.0
        meter.advance()
        assert len(beats) == 2
        assert beats[-1]["done"] == 52

    def test_heartbeat_rate_and_eta(self):
        clock = FakeClock()
        meter = ProgressMeter(lambda beat: None, clock=clock)
        meter.set_total(100)
        meter.done = 25
        clock.t = 5.0
        beat = meter.heartbeat()
        assert beat["event"] == "progress"
        assert beat["cases_per_s"] == 5.0
        assert beat["eta_s"] == 15.0  # 75 remaining at 5/s
        assert beat["final"] is False

    def test_heartbeat_without_total(self):
        clock = FakeClock()
        meter = ProgressMeter(lambda beat: None, clock=clock)
        meter.done = 10
        clock.t = 2.0
        beat = meter.heartbeat()
        assert beat["total"] is None
        assert beat["eta_s"] is None

    def test_finish_emits_unthrottled_final_beat(self):
        clock = FakeClock()
        beats: list[dict] = []
        meter = ProgressMeter(beats.append, interval_s=1e9, clock=clock)
        meter.set_total(3)
        meter.advance(3)
        meter.finish()
        assert beats[-1]["final"] is True
        assert beats[-1]["done"] == 3


class TestFormatStatus:
    def test_with_total_and_eta(self):
        text = format_status(
            {"done": 123, "total": 3500, "cases_per_s": 41.25, "eta_s": 42.0}
        )
        assert text == "123/3500 cases  41.2/s  eta 0:42"

    def test_without_total(self):
        text = format_status({"done": 7, "cases_per_s": 2.0, "eta_s": None})
        assert text == "7 cases  2.0/s"


class TestSinks:
    def test_tty_sink_rewrites_one_line(self):
        stream = io.StringIO()
        sink = TTYStatusSink(stream)
        sink.emit({"done": 1, "total": 10, "cases_per_s": 1.0, "eta_s": 9.0})
        long_line = stream.getvalue()
        sink.emit({"done": 2, "total": 10, "cases_per_s": 1.0, "eta_s": 8.0})
        assert stream.getvalue().count("\r") == 2
        assert "\n" not in stream.getvalue()
        sink.close()
        assert stream.getvalue().endswith("\n")
        assert long_line.startswith("\rperf: ")

    def test_tty_sink_pads_shrinking_lines(self):
        stream = io.StringIO()
        sink = TTYStatusSink(stream)
        sink.emit({"done": 100, "total": 1000, "cases_per_s": 10.0, "eta_s": 90.0})
        first_len = len(stream.getvalue()) - 1  # minus the \r
        stream.truncate(0)
        stream.seek(0)
        sink.emit({"done": 9, "total": 10, "cases_per_s": 1.0, "eta_s": 1.0})
        # The shorter line is padded out to overwrite the longer one.
        assert len(stream.getvalue()) - 1 >= first_len

    def test_tty_sink_close_idempotent_when_silent(self):
        stream = io.StringIO()
        TTYStatusSink(stream).close()
        assert stream.getvalue() == ""

    def test_jsonl_sink(self):
        stream = io.StringIO()
        sink = JSONLSink(stream)
        sink.emit({"event": "progress", "done": 1, "total": 2})
        sink.emit({"event": "progress", "done": 2, "total": 2})
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["done"] == 1
        sink.close()
        assert not stream.closed  # does not own the stream

    def test_jsonl_sink_owns_stream(self, tmp_path):
        handle = open(tmp_path / "live.jsonl", "w", encoding="utf-8")
        sink = JSONLSink(handle, owns_stream=True)
        sink.emit({"done": 1})
        sink.close()
        assert handle.closed


class TestModuleHelpers:
    def test_corpus_run_advances_meter(self):
        """``run_perf_report`` sets the meter's total and advances it to
        exactly that total, in-process and on a pool."""
        from repro.perf.report import run_perf_report

        for jobs in (1, 2):
            beats: list[dict] = []
            meter = ProgressMeter(beats.append, interval_s=0.0)
            report = run_perf_report(count=2, jobs=jobs, progress=meter)
            cases = len(report.data["points"]) * 2
            assert meter.total == cases + report.data["simulated_cases"]
            assert meter.done == meter.total, jobs
            # One beat per sweep point, one for the simulation corpus.
            assert [beat["done"] for beat in beats] == [2, 4, 6, 8]
