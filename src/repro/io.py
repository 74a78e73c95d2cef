"""JSON serialization for machine programs, traces, and result summaries.

A compiled :class:`~repro.machine.program.MachineProgram` is the natural
interchange artifact: it is exactly what a barrier-MIMD loader would
consume (per-PE streams, barrier masks, queue order) and exactly what
the simulators execute.  This module round-trips it through plain JSON
so schedules can be archived, diffed, or executed in another process:

* :func:`program_to_json` / :func:`program_from_json`;
* :func:`trace_to_json` for execution traces;
* :func:`result_summary` for the scheduler-statistics record an
  experiment pipeline would log per benchmark;
* :func:`save_program` / :func:`load_program` file helpers.

Node ids are restricted to ints and strings (everything the compiler
front end produces); other id types are rejected with a clear error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.barriers.mask import BarrierMask
from repro.core.scheduler import ScheduleResult
from repro.machine.program import BarrierRef, MachineOp, MachineProgram
from repro.machine.trace import ExecutionTrace
from repro.metrics.fractions import fractions_of
from repro.timing import Interval

__all__ = [
    "program_to_json",
    "program_from_json",
    "save_program",
    "load_program",
    "trace_to_json",
    "result_summary",
]

_FORMAT = "repro.machine-program.v1"


def _encode_node(node: Any) -> list:
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise TypeError(
            f"only int/str node ids are serializable, got {type(node).__name__}"
        )
    return ["i", node] if isinstance(node, int) else ["s", node]


def _decode_node(enc: list) -> Any:
    tag, value = enc
    if tag == "i":
        return int(value)
    if tag == "s":
        return str(value)
    raise ValueError(f"unknown node tag {tag!r}")


def program_to_json(program: MachineProgram) -> dict:
    """Encode a machine program as a JSON-compatible dict."""
    streams = []
    for stream in program.streams:
        items = []
        for item in stream:
            if isinstance(item, BarrierRef):
                items.append({"wait": item.barrier_id})
            else:
                items.append(
                    {
                        "node": _encode_node(item.node),
                        "lat": [item.latency.lo, item.latency.hi],
                        "mn": item.mnemonic,
                    }
                )
        streams.append(items)
    data = {
        "format": _FORMAT,
        "n_pes": program.n_pes,
        "streams": streams,
        "masks": {str(bid): list(mask) for bid, mask in program.masks.items()},
        "barrier_order": list(program.barrier_order),
        "initial_barrier_id": program.initial_barrier_id,
        "edges": [[_encode_node(g), _encode_node(i)] for g, i in program.edges],
        "barrier_latency": program.barrier_latency,
    }
    if program.guards:
        data["guards"] = [
            [_encode_node(consumer), [_encode_node(p) for p in producers]]
            for consumer, producers in sorted(
                program.guards.items(), key=lambda kv: str(kv[0])
            )
        ]
    return data


def program_from_json(data: dict) -> MachineProgram:
    """Decode :func:`program_to_json` output back into a machine program."""
    if data.get("format") != _FORMAT:
        raise ValueError(
            f"unsupported format {data.get('format')!r}; expected {_FORMAT!r}"
        )
    n_pes = int(data["n_pes"])
    streams = []
    for raw_stream in data["streams"]:
        items = []
        for item in raw_stream:
            if "wait" in item:
                items.append(BarrierRef(int(item["wait"])))
            else:
                lo, hi = item["lat"]
                items.append(
                    MachineOp(
                        _decode_node(item["node"]),
                        Interval(int(lo), int(hi)),
                        item.get("mn", ""),
                    )
                )
        streams.append(tuple(items))
    masks = {
        int(bid): BarrierMask.from_pes([int(p) for p in pes], n_pes)
        for bid, pes in data["masks"].items()
    }
    edges = tuple(
        (_decode_node(g), _decode_node(i)) for g, i in data["edges"]
    )
    guards = {
        _decode_node(consumer): tuple(_decode_node(p) for p in producers)
        for consumer, producers in data.get("guards", [])
    }
    return MachineProgram(
        n_pes=n_pes,
        streams=tuple(streams),
        masks=masks,
        barrier_order=tuple(int(b) for b in data["barrier_order"]),
        initial_barrier_id=int(data["initial_barrier_id"]),
        edges=edges,
        barrier_latency=int(data.get("barrier_latency", 0)),
        guards=guards,
    )


def save_program(program: MachineProgram, path: str | Path) -> None:
    """Write a machine program to a JSON file."""
    Path(path).write_text(json.dumps(program_to_json(program), indent=1))


def load_program(path: str | Path) -> MachineProgram:
    """Read a machine program from a JSON file."""
    return program_from_json(json.loads(Path(path).read_text()))


def trace_to_json(trace: ExecutionTrace) -> dict:
    """Encode one execution trace (start/finish/fires/makespan)."""
    return {
        "machine": trace.machine,
        "makespan": trace.makespan,
        "start": [[_encode_node(n), t] for n, t in sorted(
            trace.start.items(), key=lambda kv: str(kv[0])
        )],
        "finish": [[_encode_node(n), t] for n, t in sorted(
            trace.finish.items(), key=lambda kv: str(kv[0])
        )],
        "barrier_fire": {str(b): t for b, t in trace.barrier_fire.items()},
        "pe_finish": list(trace.pe_finish),
    }


def result_summary(result: ScheduleResult) -> dict:
    """The per-benchmark record an experiment pipeline would log."""
    fr = fractions_of(result)
    c = result.counts
    makespan = result.makespan
    return {
        "n_pes": result.config.n_pes,
        "machine": result.config.machine,
        "insertion": result.config.insertion,
        "seed": result.config.seed,
        "total_edges": c.total_edges,
        "serialized_edges": c.serialized_edges,
        "static_edges": c.static_edges,
        "barrier_edges": c.barrier_edges,
        "barriers_final": c.barriers_final,
        "merges": c.merges,
        "repairs": c.repairs,
        "fractions": {
            "barrier": fr.barrier,
            "serialized": fr.serialized,
            "static": fr.static,
        },
        "makespan": [makespan.lo, makespan.hi],
        "processors_used": result.schedule.used_processors(),
    }
