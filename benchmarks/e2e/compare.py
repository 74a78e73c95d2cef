"""The parent-versus-change rule, per (workload, metric).

Both sides are directories of ``run --out`` files, one file per run;
files are paired in name order, so write them alternating parent and
change (``parent/run-00.json``, ``change/run-00.json``, ...).  The two
runs of a pair must have the same seed and round count; a workload
whose runs do not pair up is reported ``unpaired`` and not judged.

For each pair of a workload's metric:

* at least :data:`MIN_PAIRS` pairs are needed;
* ``improved`` needs the change to win at least 9/10 of the pairs (ties
  count for neither side) and the medians to differ by more than the
  parent's interquartile range;
* ``regressed`` means the change's median is worse than the parent's by
  more than the metric's bound.  An exact metric (one that repeats
  exactly at a given seed) has no allowance: it regresses as soon as one
  pair reads worse;
* ``unresolved`` means the parent's interquartile range is wider than
  the bound, unless every change run beats every parent run;
* otherwise ``flat``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e.spec import EXACT_METRICS

MIN_PAIRS = 10
WIN_SHARE = 0.9
UNPAIRED = "unpaired"


@dataclass(frozen=True)
class Verdict:
    status: str
    pairs: int
    wins: int
    losses: int
    ties: int
    parent: tuple[float, float, float]  # median, q1, q3
    change: tuple[float, float, float]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def judge(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    exact: bool = False,
) -> Verdict:
    """Apply the rule to one metric's parent and change runs, paired in order."""
    sign = 1.0 if better == "higher" else -1.0
    n = min(len(parent), len(change))
    gains = [sign * (c - p) for p, c in zip(parent[:n], change[:n])]
    wins = sum(1 for g in gains if g > 0)
    losses = sum(1 for g in gains if g < 0)
    p_stats, c_stats = quartiles(parent), quartiles(change)
    if n < MIN_PAIRS:
        return Verdict("too few pairs", n, wins, losses, n - wins - losses, p_stats, c_stats)
    p_median, p_q1, p_q3 = p_stats
    c_median = c_stats[0]
    allowance = bound * abs(p_median)
    worse = sign * (p_median - c_median)
    all_better = (
        min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    )
    gain = (
        wins >= math.ceil(WIN_SHARE * n)
        and -worse > 0
        and abs(c_median - p_median) > p_q3 - p_q1
    )
    if exact and losses:
        status = "regressed"
    elif not exact and p_q3 - p_q1 > allowance and not all_better:
        status = "unresolved"
    elif worse > allowance:
        status = "regressed"
    elif gain:
        status = "improved"
    else:
        status = "flat"
    return Verdict(status, n, wins, losses, n - wins - losses, p_stats, c_stats)


def load_runs(
    directory: Path,
) -> tuple[dict[tuple[str, str], list[float]], dict[str, list[tuple[int, int]]]]:
    """Values per (workload, metric) and (seed, rounds) per workload,
    one entry per ``*.json`` file in name order."""
    runs: dict[tuple[str, str], list[float]] = {}
    shapes: dict[str, list[tuple[int, int]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for workload, result in data["workloads"].items():
            shapes.setdefault(workload, []).append((data["seed"], result["rounds"]))
            for metric, value in result.get("metrics", {}).items():
                runs.setdefault((workload, metric), []).append(float(value))
    return runs, shapes


def compare(
    parent_dir: Path, change_dir: Path, table: dict[str, tuple[str, str, float]]
) -> tuple[list[str], dict[tuple[str, str], Verdict]]:
    """Report lines and verdicts for every metric of ``table`` both sides have."""
    (parent, p_shapes), (change, c_shapes) = load_runs(parent_dir), load_runs(change_dir)
    workloads = sorted(set(p_shapes) & set(c_shapes))
    lines: list[str] = []
    verdicts: dict[tuple[str, str], Verdict] = {}
    for metric, (unit, better, bound) in table.items():
        exact = metric in EXACT_METRICS
        allowance = "exact" if exact else f"bound {bound:.0%}"
        lines.append(f"{metric} ({unit}, {better} is better, {allowance})")
        lines.append(
            f"  {'workload':<14} {'parent median [q1, q3]':>32} "
            f"{'change median [q1, q3]':>32}  {'w/l/t':>8}  verdict"
        )
        for workload in workloads:
            key = (workload, metric)
            if key not in parent or key not in change:
                continue
            v = judge(parent[key], change[key], better, bound, exact)
            n = v.pairs
            if p_shapes[workload][:n] != c_shapes[workload][:n]:
                v = dataclasses.replace(v, status=UNPAIRED)
            verdicts[key] = v
            lines.append(
                f"  {workload:<14} {_fmt(v.parent):>32} {_fmt(v.change):>32}  "
                f"{f'{v.wins}/{v.losses}/{v.ties}':>8}  {v.status}"
            )
    return lines, verdicts


def _fmt(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"
