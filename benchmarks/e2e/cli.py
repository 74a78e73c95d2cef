"""Command line: ``run``, ``trace`` and ``compare``.

``run`` measures the end-to-end metrics (``--trace 1`` switches it to the
traced run); ``trace`` is ``run --trace 1``.  Both print every metric
with its unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
``BENCHMARK.json`` lists.  The exit code is 0 only when every output
check passed, 1 when a check failed, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchmarks.e2e import compare as compare_mod
from benchmarks.e2e import harness
from benchmarks.e2e.spec import (
    ROOT,
    ROUNDS,
    WORKLOADS,
    end_to_end_table,
    load_benchmark,
    load_expected,
    per_layer_table,
)

FORMAT = "repro.e2e-bench.v1"


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_case"):
        return "count/case"
    if name.endswith("pes_used_mean"):
        return "PEs"
    if name.endswith(("ratio", ".coverage", ".overhead")):
        return "ratio"
    return "count"


def _non_negative(kind):
    def parse(text: str):
        value = kind(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    return parse


def _parser(run_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of compile -> schedule -> simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "measure the end-to-end metrics"),
        ("trace", "measure the per-layer metrics with the layer ledger on"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument(
            "--workload",
            action="append",
            choices=sorted(WORKLOADS),
            help="workload to run (repeatable; default: all)",
        )
        p.add_argument("--seed", type=_non_negative(int), default=0)
        p.add_argument("--out", type=Path, help="write the full result as JSON")
        if name == "run":
            p.add_argument(
                "--seconds",
                type=_non_negative(float),
                default=run_seconds,
                help="recorded only: a run is always "
                f"{ROUNDS} rounds, about {run_seconds} s of timed corpus work",
            )
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("compare", help="judge a change's runs against a parent's")
    c.add_argument("parent", type=Path, help="directory of the parent's --out files")
    c.add_argument("change", type=Path, help="directory of the change's --out files")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        benchmark = load_benchmark()
        expected = load_expected()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = _parser(benchmark["run_seconds"]).parse_args(argv)
    if args.command == "compare":
        return _compare(args, benchmark)
    trace = args.command == "trace" or args.trace == 1
    seconds = getattr(args, "seconds", 0)
    names = args.workload or list(WORKLOADS)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        digest = expected.get(name) if args.seed == 0 else None
        try:
            if trace:
                results[name] = harness.trace_workload(workload, args.seed, digest)
            else:
                results[name] = harness.run_workload(workload, args.seed, digest)
        except harness.PhaseError as exc:
            results[name] = {"error": str(exc)}
    _cross_check(results)
    for name, result in results.items():
        _print_result(name, args.seed, result, benchmark, trace)
    if args.out is not None:
        _write_out(args.out, results, args.seed, seconds, trace)
    if any("error" in r for r in results.values()):
        return 1
    selected = (
        per_layer_table(benchmark)
        if trace
        else {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    )
    failed = sum(r["failed"] for r in results.values())
    line = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {
            (m if len(results) == 1 else f"{name}.{m}"): {
                "value": r["metrics"][m],
                "unit": unit,
            }
            for name, r in results.items()
            for m, unit in selected.items()
        },
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def _cross_check(results: dict) -> None:
    """``paper8_jobs2`` must reproduce ``paper8``'s corpus digest."""
    serial, parallel = results.get("paper8"), results.get("paper8_jobs2")
    if not serial or not parallel or "error" in serial or "error" in parallel:
        return
    if serial["digest"] != parallel["digest"]:
        parallel["failures"].append(
            f"paper8_jobs2: digest {parallel['digest']} != paper8 {serial['digest']}"
        )
        parallel["failed"] = max(parallel["failed"], parallel["cases"])
        if "fail_rate" in parallel["metrics"]:
            parallel["metrics"]["fail_rate"] = parallel["failed"] / parallel["attempted"]


def _print_result(
    name: str, seed: int, result: dict, benchmark: dict, trace: bool
) -> None:
    if "error" in result:
        print(f"{name}: FAILED TO RUN: {result['error']}")
        return
    print(
        f"{name}  seed {seed}, jobs {result['jobs']}, {result['cases']} cases "
        f"in {result['rounds']} rounds, {result['block_runs']} block runs"
        + ("  [traced]" if trace else "")
    )
    table = end_to_end_table(benchmark)
    metrics = result["metrics"].items()
    for metric, value in sorted(metrics) if trace else metrics:
        unit = layer_unit(metric) if trace else table[metric][0]
        print(f"  {metric:<48} {value:>14.6g} {unit}")
    if trace and result["missing"]:
        print(f"  trace.missing targets: {', '.join(result['missing'])}")
    print(f"  digest {result['digest']}")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")


def _write_out(path: Path, results: dict, seed: int, seconds: float, trace: bool) -> None:
    env = next((r["env"] for r in results.values() if "env" in r), None)
    data = {
        "format": FORMAT,
        "command": "trace" if trace else "run",
        "seed": seed,
        "seconds": seconds,
        "created_unix": time.time(),
        "env": env,
        "workloads": {
            name: {k: v for k, v in r.items() if k != "env"}
            for name, r in results.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _compare(args, benchmark: dict) -> int:
    lines, verdicts = compare_mod.compare(
        args.parent, args.change, end_to_end_table(benchmark)
    )
    print("\n".join(lines))
    refused = {"regressed", compare_mod.UNPAIRED}
    return 1 if any(v.status in refused for v in verdicts.values()) else 0
