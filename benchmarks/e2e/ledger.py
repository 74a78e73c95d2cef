"""Outside-in layer ledger: per-layer self time from wrapped public calls.

The ledger replaces each layer's public functions and methods (listed in
:data:`LAYERS`) with thin wrappers, from the benchmark's own code; the
program's sources are not touched.  While the ledger is *on*, every
wrapped call opens a span on a stack; when it returns, the span's
duration minus the time covered by its child spans is credited to the
layer as self time.  So the self times of all layers, plus the
harness's own time outside any span, add up to the wall time of the
traced region.

Function targets are replaced in every loaded module that bound the
function by name (``from x import f``); method targets are replaced on
their class.  A target that no longer exists is skipped and listed in
:attr:`Ledger.missing`.

Only the measuring process is accounted: forked corpus workers inherit
the wrappers, but their calls stay in the workers.  The parent's
``run_corpus`` span covers the time it waits for them.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: Layer name (the module it lives in) -> ``module:qualname`` targets.
LAYERS: dict[str, tuple[str, ...]] = {
    "driver": ("repro.experiments.sweeps:run_corpus",),
    "synth": (
        "repro.synth.corpus:compile_case",
        "repro.synth.genvec:compile_cases",
        "repro.synth.genvec:compile_drawn_cases",
        "repro.synth.genvec:draw_corpus",
    ),
    "core.labeling": (
        "repro.core.labeling:compute_heights",
        "repro.kernels.batch:heights_batch",
    ),
    "core.ordering": ("repro.core.ordering:order_nodes",),
    "core.schedule": (
        "repro.core.schedule:Schedule.__init__",
        "repro.core.schedule:Schedule.append_instruction",
        "repro.core.schedule:Schedule.makespan",
        "repro.core.schedule:Schedule.used_processors",
    ),
    "core.schedule.views": (
        "repro.core.schedule:Schedule.insert_barrier",
        "repro.core.schedule:Schedule.replace_barrier",
    ),
    "core.assignment": (
        "repro.core.assignment:ListPolicy.choose",
        "repro.core.assignment:RoundRobinPolicy.choose",
        "repro.core.assignment:LookaheadPolicy.choose",
    ),
    "core.barrier_insert.classify": ("repro.core.barrier_insert:classify_edge",),
    "core.barrier_insert.place": (
        "repro.core.barrier_insert:BarrierInserter.ensure_edge",
    ),
    "core.merging": (
        "repro.core.merging:merge_new_barrier",
        "repro.core.merging:merge_all_overlapping",
        "repro.kernels.batch:first_candidates",
    ),
    "core.validate": (
        "repro.core.validate:finalize_schedule",
        "repro.core.validate:repair_schedule",
        "repro.core.validate:check_structure",
    ),
    "core.scheduler": (
        "repro.core.scheduler:schedule_dag",
        "repro.core.batchrun:schedule_cases",
    ),
    "metrics": ("repro.metrics.stats:aggregate_results",),
    "machine": (
        "repro.machine.program:MachineProgram.from_schedule",
        "repro.machine.sbm:simulate_sbm",
        "repro.machine.dbm:simulate_dbm",
    ),
}

#: Spans kept; later spans still count, but are not stored, which
#: bounds memory and the span files to a few MB.
MAX_SPANS = 20_000


class Ledger:
    """Wraps the layer targets and accounts self time while :attr:`on`.

    Use as a context manager (install on enter, restore on exit) and
    open measured regions with :meth:`active`.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        self.layers = list(layers)
        self.targets = layers
        self.on = False
        #: Point or block id stamped on the spans opened while it is set.
        self.tag = ""
        self.missing: list[str] = []
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._gc_start: float | None = None

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Ledger":
        for index, layer in enumerate(self.layers):
            for target in self.targets[layer]:
                if not self._patch(target, index):
                    self.missing.append(target)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        self.on = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, target: str, index: int) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            try:
                static = inspect.getattr_static(owner, attr)
            except AttributeError:
                return False
            if isinstance(static, staticmethod):
                wrapper = staticmethod(self._wrap(index, static.__func__))
            elif callable(static):
                wrapper = self._wrap(index, static)
            else:
                return False
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, static))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(index, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._patches.append((namespace, key, original))
        return True

    def _wrap(self, index: int, fn: Callable) -> Callable:
        ledger = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ledger.on:
                return fn(*args, **kwargs)
            stack = ledger._stack
            # [layer, child seconds, span id, start]
            frame = [index, 0.0, ledger._next_id, clock()]
            ledger._next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[3]
                ledger.self_s[index] += duration - frame[1]
                ledger.calls[index] += 1
                parent = stack[-1][2] if stack else -1
                if stack:
                    stack[-1][1] += duration
                if len(ledger.spans) < MAX_SPANS:
                    ledger.spans.append(
                        (frame[2], index, frame[3], end, parent, ledger.tag)
                    )
                else:
                    ledger.dropped += 1

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.on:
                self.gc_pause_s += time.perf_counter() - self._gc_start
                self.gc_collections += 1
            self._gc_start = None

    # -- measurement -------------------------------------------------------------

    @contextmanager
    def active(self, tag: str) -> Iterator["Ledger"]:
        """Account wrapped calls (stamped ``tag``) inside the block."""
        self.tag = tag
        self.on = True
        try:
            yield self
        finally:
            self.on = False

    def self_total(self) -> float:
        """Self seconds of all layers."""
        return sum(self.self_s)

    def totals(self) -> dict:
        """Per-layer self seconds and calls."""
        return {
            layer: {"self_s": self.self_s[i], "calls": self.calls[i]}
            for i, layer in enumerate(self.layers)
        }

    # -- export ------------------------------------------------------------------

    def write(self, stem: Path) -> tuple[Path, Path]:
        """Write ``<stem>.spans.json`` and a Chrome-trace ``<stem>.trace.json``.

        Span rows are ``[id, layer, start_s, end_s, parent_id, tag]`` with
        ``parent_id`` -1 for a root span.  Open the trace file in Perfetto
        or ``chrome://tracing``.
        """
        stem.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [sid, self.layers[layer], start, end, parent, tag]
            for sid, layer, start, end, parent, tag in self.spans
        ]
        spans_path = stem.with_name(stem.name + ".spans.json")
        spans_path.write_text(
            json.dumps(
                {
                    "columns": ["id", "layer", "start_s", "end_s", "parent", "tag"],
                    "pid": os.getpid(),
                    "spans": rows,
                    "dropped": self.dropped,
                    "missing": self.missing,
                }
            ),
            encoding="utf-8",
        )
        pid = os.getpid()
        origin = min((row[2] for row in rows), default=0.0)
        events = [
            {
                "name": layer,
                "ph": "X",
                "pid": pid,
                "tid": pid,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent, "tag": tag},
            }
            for sid, layer, start, end, parent, tag in rows
        ]
        trace_path = stem.with_name(stem.name + ".trace.json")
        trace_path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )
        return spans_path, trace_path
