"""Live progress heartbeats for long corpus runs.

A :class:`ProgressMeter` counts completed cases and emits throttled
heartbeat records -- ``{"event": "progress", "done": ..., "total": ...,
"cases_per_s": ..., "eta_s": ...}`` -- to whatever sink installed it.
Two sinks ship with the CLI's ``perf --live`` flag:

* :class:`TTYStatusSink` rewrites a single status line on a terminal
  (``\\r``-based, no curses);
* :class:`JSONLSink` appends one JSON object per heartbeat -- the
  machine-readable stream a service layer can forward as SSE, and the
  fallback when stderr is not a TTY.

A meter is an explicit output, not a collector: ``perf --live``
builds one and hands it to :func:`repro.perf.report.run_perf_report`,
which sets its total and advances it after each sweep point and after
the simulation corpus; nothing else reports progress, and
``REPRO_OBS_DISABLE=1`` does not silence a meter that was asked for.
Heartbeats are throttled to one per :data:`HEARTBEAT_INTERVAL_S` so
frequent advances do not spend their time formatting status lines.
Progress is observation only -- the report advances the meter strictly
*after* a point's results are recorded, so results are bit-identical
with or without a meter.
"""

from __future__ import annotations

import json
import time
from typing import Callable, TextIO

__all__ = [
    "HEARTBEAT_INTERVAL_S",
    "JSONLSink",
    "ProgressMeter",
    "TTYStatusSink",
    "format_status",
]

#: Minimum seconds between emitted heartbeats (the final one always fires).
HEARTBEAT_INTERVAL_S = 0.5


def format_status(beat: dict) -> str:
    """One human status line for a heartbeat record."""
    done = beat.get("done", 0)
    total = beat.get("total")
    rate = beat.get("cases_per_s") or 0.0
    eta = beat.get("eta_s")
    text = f"{done}/{total} cases" if total else f"{done} cases"
    text += f"  {rate:.1f}/s"
    if eta is not None:
        minutes, seconds = divmod(int(eta + 0.5), 60)
        text += f"  eta {minutes:d}:{seconds:02d}"
    return text


class ProgressMeter:
    """Counts completed cases; emits throttled heartbeats to a sink."""

    def __init__(
        self,
        emit: Callable[[dict], None],
        interval_s: float = HEARTBEAT_INTERVAL_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._emit = emit
        self._interval_s = interval_s
        self._clock = clock
        self._t0 = clock()
        self._last_emit = float("-inf")
        self.done = 0
        self.total: int | None = None

    def set_total(self, total: int) -> None:
        self.total = total

    def advance(self, n: int = 1) -> None:
        self.done += n
        now = self._clock()
        if now - self._last_emit >= self._interval_s:
            self._last_emit = now
            self._emit(self.heartbeat(now))

    def heartbeat(self, now: float | None = None, final: bool = False) -> dict:
        now = self._clock() if now is None else now
        elapsed = max(now - self._t0, 1e-9)
        rate = self.done / elapsed
        eta = None
        if self.total is not None and rate > 0 and self.done <= self.total:
            eta = (self.total - self.done) / rate
        return {
            "event": "progress",
            "done": self.done,
            "total": self.total,
            "elapsed_s": elapsed,
            "cases_per_s": rate,
            "eta_s": eta,
            "final": final,
        }

    def finish(self) -> None:
        """Emit the final (unthrottled) heartbeat."""
        self._emit(self.heartbeat(final=True))


class TTYStatusSink:
    """Rewrites one ``\\r``-terminated status line on a terminal."""

    def __init__(self, stream: TextIO, prefix: str = "perf") -> None:
        self._stream = stream
        self._prefix = prefix
        self._width = 0

    def emit(self, beat: dict) -> None:
        line = f"{self._prefix}: {format_status(beat)}"
        pad = max(0, self._width - len(line))
        self._width = len(line)
        self._stream.write("\r" + line + " " * pad)
        self._stream.flush()

    def close(self) -> None:
        """End the status line so following output starts clean."""
        if self._width:
            self._stream.write("\n")
            self._stream.flush()
            self._width = 0


class JSONLSink:
    """Appends one JSON object per heartbeat to a text stream."""

    def __init__(self, stream: TextIO, owns_stream: bool = False) -> None:
        self._stream = stream
        self._owns_stream = owns_stream

    def emit(self, beat: dict) -> None:
        self._stream.write(json.dumps(beat, sort_keys=True) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
