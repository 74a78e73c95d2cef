"""Perf-trajectory watchdog: flag regressions across BENCH series.

``repro-sbm perf`` appends one entry per run to a trajectory file
(``benchmarks/data/BENCH_trajectory.jsonl``, one JSON object per line;
see :func:`repro.perf.report.trajectory_entry`).  This module reads the
series and compares the **latest** entry against the statistics of the
prior ones:

* **wall-clock series** (``wall_s``, per-stage times) are flagged when
  the latest value exceeds ``factor x median(prior)`` plus an absolute
  noise floor -- the same 2x-with-floor discipline the CI perf gates
  already use, but applied to the whole series instead of one pinned
  baseline, so a slow drift across many commits is caught even when no
  single step trips a 2x gate.  Only prior entries that ran the *same
  workload* (``preset`` / ``count``) enter the baseline median: a
  ``scale1024`` sweep is legitimately an order of magnitude slower
  than a quick default-preset run, and mixing them would flag every
  heavy entry (or mask a real regression in a light one);
* **deterministic series** (sync fractions, mean makespans) are exact
  functions of the workload.  When the latest entry ran the same
  workload as a prior one (same ``count`` / ``master_seed``) and their
  ``results_digest`` matches, those numbers must match bit for bit --
  any difference is a determinism violation and is flagged hard.  When
  the digest changed, the values legitimately moved with the behaviour
  change; the watchdog reports the drift as a note instead of a
  failure.  Entries from a different workload size are never compared
  (the digest only covers the simulated subset, which saturates at
  ``SIMULATED_CASES``, so two digest-equal runs can still sweep
  different corpus sizes);
* the **corpus digest** (``corpus_digest``, over every swept case) is
  flagged when it differs from the last prior entry of the same
  ``preset`` / ``count`` / ``master_seed``: a deliberate behaviour
  change shows up there and has to be acknowledged.

:func:`watch_trajectory` returns a :class:`WatchReport` whose
:meth:`~WatchReport.render_markdown` is the artifact CI uploads;
``repro-sbm watch`` exits non-zero when anything was flagged.
Everything here is stdlib-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

__all__ = [
    "ExplainReport",
    "RegressionCause",
    "WatchConfig",
    "SeriesVerdict",
    "WatchReport",
    "explain_regression",
    "load_trajectory",
    "watch_trajectory",
]

#: Wall-time series: (name, extractor, absolute noise floor in seconds).
_WALL_FLOOR = 1.5
_STAGE_FLOOR = 0.5
_STAGE_NAMES = ("generate", "schedule", "insert", "merge", "simulate")


@dataclass(frozen=True)
class WatchConfig:
    """Thresholds of the watchdog (defaults mirror the CI perf gates)."""

    #: Latest wall/stage time may be at most ``factor x median(prior)``.
    factor: float = 2.0
    #: Absolute floors so sub-second workloads cannot flag on noise.
    wall_floor_s: float = _WALL_FLOOR
    stage_floor_s: float = _STAGE_FLOOR
    #: Minimum prior entries before time series are judged at all.
    min_history: int = 1


@dataclass(frozen=True)
class SeriesVerdict:
    """One watched series: baseline statistics vs the latest value."""

    name: str
    kind: str  # "time" | "throughput" | "deterministic" | "digest"
    n_prior: int
    baseline: float | None  # median of prior entries (time series)
    latest: float | None
    limit: float | None  # flag threshold (time series)
    flagged: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "n_prior": self.n_prior,
            "baseline": self.baseline,
            "latest": self.latest,
            "limit": self.limit,
            "flagged": self.flagged,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class WatchReport:
    """The watchdog's verdicts over one trajectory series."""

    entries: int
    verdicts: tuple[SeriesVerdict, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def flagged(self) -> tuple[SeriesVerdict, ...]:
        return tuple(v for v in self.verdicts if v.flagged)

    @property
    def ok(self) -> bool:
        return not self.flagged

    def as_dict(self) -> dict:
        return {
            "entries": self.entries,
            "ok": self.ok,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.flagged)} series FLAGGED"
        lines = [f"perf-trajectory watchdog: {self.entries} entries, {status}"]
        for v in self.verdicts:
            mark = "FLAG" if v.flagged else "ok"
            base = "-" if v.baseline is None else f"{v.baseline:.3f}"
            latest = "-" if v.latest is None else f"{v.latest:.3f}"
            lines.append(
                f"  [{mark}] {v.name}: latest {latest} baseline {base}"
                + (f" ({v.detail})" if v.detail else "")
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """The CI artifact: a self-contained markdown report."""
        status = (
            "**OK** — no regression flagged"
            if self.ok
            else f"**REGRESSION** — {len(self.flagged)} series flagged"
        )
        lines = [
            "# Perf-trajectory watchdog",
            "",
            f"{self.entries} trajectory entries analyzed. {status}.",
            "",
            "| series | kind | prior | baseline | latest | limit | status |",
            "|---|---|---|---|---|---|---|",
        ]
        for v in self.verdicts:
            fmt = lambda x: "—" if x is None else f"{x:.3f}"
            lines.append(
                f"| `{v.name}` | {v.kind} | {v.n_prior} | {fmt(v.baseline)} "
                f"| {fmt(v.latest)} | {fmt(v.limit)} | "
                f"{'⚠️ flagged' if v.flagged else 'ok'} |"
            )
        if self.notes:
            lines.append("")
            lines.append("## Notes")
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        for v in self.flagged:
            if v.detail:
                lines.append("")
                lines.append(f"- **{v.name}**: {v.detail}")
        lines.append("")
        return "\n".join(lines)


def load_trajectory(path: str | Path) -> list[dict]:
    """Read a trajectory series (one JSON object per non-empty line)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: bad trajectory line: {exc}")
    return entries


def _time_series(entries: list[dict]) -> dict[str, list[float | None]]:
    series: dict[str, list[float | None]] = {"wall_s": []}
    for name in _STAGE_NAMES:
        series[f"stages.{name}"] = []
    for e in entries:
        series["wall_s"].append(e.get("wall_s"))
        stages = e.get("stages", {})
        for name in _STAGE_NAMES:
            series[f"stages.{name}"].append(stages.get(name))
    return series


def _point_series(entries: list[dict]) -> dict[str, list[float | None]]:
    """Deterministic headline numbers, one series per (axis value, field)."""
    series: dict[str, list[float | None]] = {}
    fields = ("barrier", "serialized", "static", "mean_makespan_max")
    for e in entries:
        for point in e.get("points", ()):
            for f in fields:
                name = f"points[{point.get('value')}].{f}"
                series.setdefault(name, [])
    for e in entries:
        by_value = {p.get("value"): p for p in e.get("points", ())}
        for name, values in series.items():
            value = int(name[name.index("[") + 1 : name.index("]")])
            point = by_value.get(value)
            values.append(None if point is None else point.get(name.rsplit(".", 1)[1]))
    return series


def watch_trajectory(
    entries: list[dict], config: WatchConfig | None = None
) -> WatchReport:
    """Judge the latest trajectory entry against the prior series."""
    config = config or WatchConfig()
    if len(entries) < 2:
        return WatchReport(
            entries=len(entries),
            verdicts=(),
            notes=(
                "fewer than 2 trajectory entries; nothing to compare "
                "(run `repro-sbm perf` to append one)",
            ),
        )
    prior, latest = entries[:-1], entries[-1]
    verdicts: list[SeriesVerdict] = []
    notes: list[str] = []

    # -- wall-clock series -------------------------------------------------
    time_workload = (latest.get("preset"), latest.get("count"))
    same_time_workload = [
        (e.get("preset"), e.get("count")) == time_workload for e in prior
    ]
    off_workload = len(prior) - sum(same_time_workload)
    if off_workload:
        notes.append(
            f"{off_workload} prior entr"
            f"{'y' if off_workload == 1 else 'ies'} ran a different "
            "workload (preset/count); time series were not compared "
            "against them"
        )
    for name, values in _time_series(entries).items():
        hist = [
            v
            for v, same in zip(values[:-1], same_time_workload)
            if v is not None and same
        ]
        last = values[-1]
        if last is None or len(hist) < config.min_history:
            continue
        base = median(hist)
        floor = config.wall_floor_s if name == "wall_s" else config.stage_floor_s
        limit = max(config.factor * base, base + floor)
        verdicts.append(
            SeriesVerdict(
                name=name,
                kind="time",
                n_prior=len(hist),
                baseline=base,
                latest=last,
                limit=limit,
                flagged=last > limit,
                detail=(
                    f"latest {last:.3f}s exceeds {limit:.3f}s "
                    f"({config.factor:.1f}x median of {len(hist)} prior runs)"
                    if last > limit
                    else ""
                ),
            )
        )

    # -- throughput series (higher is better; the comparison flips) -------
    rate_hist = [
        e.get("cases_per_s")
        for e, same in zip(prior, same_time_workload)
        if same and e.get("cases_per_s")
    ]
    latest_rate = latest.get("cases_per_s")
    if (
        latest_rate
        and len(rate_hist) >= config.min_history
        # Sub-second workloads are all noise; same discipline as the
        # wall floor, expressed on the rate's underlying wall time.
        and (latest.get("wall_s") or 0.0) >= config.wall_floor_s
    ):
        base = median(rate_hist)
        limit = base / config.factor
        flagged = latest_rate < limit
        verdicts.append(
            SeriesVerdict(
                name="cases_per_s",
                kind="throughput",
                n_prior=len(rate_hist),
                baseline=base,
                latest=latest_rate,
                limit=limit,
                flagged=flagged,
                detail=(
                    f"latest {latest_rate:.1f} cases/s fell below "
                    f"{limit:.1f} (median of {len(rate_hist)} prior runs "
                    f"/ {config.factor:.1f})"
                    if flagged
                    else ""
                ),
            )
        )

    # -- deterministic series ----------------------------------------------
    latest_digest = latest.get("results_digest")
    latest_workload = (latest.get("count"), latest.get("master_seed"))

    def comparable(e: dict) -> bool:
        # The digest only covers the simulated subset (saturating at
        # SIMULATED_CASES), so equal digests from different corpus
        # sizes are NOT the same workload -- count/seed must match too.
        return (
            e.get("results_digest") == latest_digest
            and (e.get("count"), e.get("master_seed")) == latest_workload
        )

    same_digest_prior = [e for e in prior if comparable(e)]
    digests = {e.get("results_digest") for e in entries}
    if len(digests) > 1:
        notes.append(
            f"{len(digests)} distinct results_digest values across the "
            "series (behaviour changed between entries; deterministic "
            "series are only compared within a digest)"
        )
    skipped_workloads = sum(
        1
        for e in prior
        if e.get("results_digest") == latest_digest and not comparable(e)
    )
    if skipped_workloads:
        notes.append(
            f"{skipped_workloads} digest-equal prior entr"
            f"{'y' if skipped_workloads == 1 else 'ies'} ran a different "
            "workload (count/master_seed); deterministic series were not "
            "compared against them"
        )
    # -- corpus digest ------------------------------------------------------
    # It covers every swept case, so within one workload (preset, count,
    # seed) any change is a behaviour change that must be explained.
    latest_corpus = latest.get("corpus_digest")
    corpus_workload = (
        latest.get("preset"),
        latest.get("count"),
        latest.get("master_seed"),
    )
    corpus_prior = [
        e
        for e in prior
        if e.get("corpus_digest")
        and (e.get("preset"), e.get("count"), e.get("master_seed"))
        == corpus_workload
    ]
    if latest_corpus and corpus_prior:
        reference = corpus_prior[-1]["corpus_digest"]
        drifted = reference != latest_corpus
        verdicts.append(
            SeriesVerdict(
                name="corpus_digest",
                kind="digest",
                n_prior=len(corpus_prior),
                baseline=None,
                latest=None,
                limit=None,
                flagged=drifted,
                detail=(
                    f"corpus digest {latest_corpus[:16]} differs from "
                    f"{reference[:16]} of the last prior entry of the same "
                    "preset, count and seed: the scheduled cases changed"
                    if drifted
                    else ""
                ),
            )
        )
    for name, values in _point_series(entries).items():
        last = values[-1]
        if last is None:
            continue
        reference = None
        for e, v in zip(prior, values[:-1]):
            if v is not None and comparable(e):
                reference = v
        if reference is None:
            continue  # no comparable prior entry (digest/workload changed)
        drifted = abs(last - reference) > 1e-9
        verdicts.append(
            SeriesVerdict(
                name=name,
                kind="deterministic",
                n_prior=len(same_digest_prior),
                baseline=reference,
                latest=last,
                limit=None,
                flagged=drifted,
                detail=(
                    "value differs from a prior entry with the SAME "
                    "results_digest: determinism violation"
                    if drifted
                    else ""
                ),
            )
        )
    return WatchReport(
        entries=len(entries), verdicts=tuple(verdicts), notes=tuple(notes)
    )


# -- regression attribution (`repro-sbm watch --explain`) ------------------


@dataclass(frozen=True)
class RegressionCause:
    """One regressed series: where the latest entry lost its time."""

    kind: str  # "stage" | "kernel" | "gc"
    name: str
    baseline: float  # median of comparable prior entries, seconds
    latest: float
    delta: float  # latest - baseline, seconds (positive = regressed)
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "baseline": self.baseline,
            "latest": self.latest,
            "delta": self.delta,
            "note": self.note,
        }

    def render(self) -> str:
        text = (
            f"{self.kind} {self.name}: +{self.delta:.3f}s "
            f"({self.baseline:.3f}s -> {self.latest:.3f}s)"
        )
        if self.note:
            text += f"  [{self.note}]"
        return text


@dataclass(frozen=True)
class ExplainReport:
    """Top regressed stages/kernels of the latest trajectory entry."""

    workload: str
    n_prior: int
    causes: tuple[RegressionCause, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "n_prior": self.n_prior,
            "causes": [c.as_dict() for c in self.causes],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [
            f"explain: latest vs median of {self.n_prior} prior runs "
            f"({self.workload})"
        ]
        for rank, cause in enumerate(self.causes, 1):
            lines.append(f"  {rank}. {cause.render()}")
        if not self.causes:
            lines.append("  nothing regressed against the baseline")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [
            "## Regression attribution",
            "",
            f"Latest entry vs the median of {self.n_prior} prior runs "
            f"({self.workload}).",
            "",
        ]
        if self.causes:
            lines.append("| rank | kind | series | baseline | latest | delta |")
            lines.append("|---|---|---|---|---|---|")
            for rank, c in enumerate(self.causes, 1):
                lines.append(
                    f"| {rank} | {c.kind} | `{c.name}` | {c.baseline:.3f}s "
                    f"| {c.latest:.3f}s | +{c.delta:.3f}s |"
                )
            for c in self.causes:
                if c.note:
                    lines.append("")
                    lines.append(f"- **{c.name}**: {c.note}")
        else:
            lines.append("Nothing regressed against the baseline.")
        for note in self.notes:
            lines.append("")
            lines.append(f"- {note}")
        lines.append("")
        return "\n".join(lines)


def _median_series(values: list[float]) -> float | None:
    return median(values) if values else None


def explain_regression(
    entries: list[dict], top: int = 5
) -> ExplainReport:
    """Attribute the latest entry's lost time to stages and kernels.

    Compares the latest trajectory entry's per-stage wall times, its
    per-kernel profile (``profile.kernels.<key>.wall_s``), and its GC
    pause total against the medians of the prior entries that ran the
    same workload (``preset``/``count``), and ranks the positive deltas.
    The result names the top-``top`` regressed series with time deltas
    -- the "what got slower" answer a flagged
    :func:`watch_trajectory` verdict leaves open.
    """
    if not entries:
        return ExplainReport(
            workload="no entries",
            n_prior=0,
            causes=(),
            notes=("empty trajectory; nothing to explain",),
        )
    latest = entries[-1]
    workload = (latest.get("preset"), latest.get("count"))
    prior = [
        e
        for e in entries[:-1]
        if (e.get("preset"), e.get("count")) == workload
    ]
    workload_text = f"preset {workload[0]}, count {workload[1]}"
    if not prior:
        return ExplainReport(
            workload=workload_text,
            n_prior=0,
            causes=(),
            notes=(
                "no prior entries ran the same workload "
                f"({workload_text}); nothing to compare",
            ),
        )
    causes: list[RegressionCause] = []
    notes: list[str] = []

    # Stage wall times, with a compute-vs-stall note from the CPU column.
    latest_stages = latest.get("stages", {})
    latest_cpu = latest_stages.get("cpu", {})
    for name in _STAGE_NAMES:
        latest_wall = latest_stages.get(name)
        if latest_wall is None:
            continue
        base = _median_series(
            [
                e.get("stages", {}).get(name)
                for e in prior
                if e.get("stages", {}).get(name) is not None
            ]
        )
        if base is None:
            continue
        delta = latest_wall - base
        if delta <= 0:
            continue
        note = ""
        cpu_base = _median_series(
            [
                e.get("stages", {}).get("cpu", {}).get(name)
                for e in prior
                if e.get("stages", {}).get("cpu", {}).get(name) is not None
            ]
        )
        if name in latest_cpu and cpu_base is not None:
            cpu_delta = latest_cpu[name] - cpu_base
            if cpu_delta < 0.5 * delta:
                note = (
                    f"wall grew {delta:.3f}s but cpu only "
                    f"{max(cpu_delta, 0.0):.3f}s: mostly stall (gc/io), "
                    "not compute"
                )
        causes.append(
            RegressionCause(
                kind="stage",
                name=name,
                baseline=base,
                latest=latest_wall,
                delta=delta,
                note=note,
            )
        )

    # Per-kernel wall times from the trimmed resource profile.
    latest_kernels = (latest.get("profile") or {}).get("kernels", {})
    prior_profiles = [
        (e.get("profile") or {}).get("kernels", {}) for e in prior
    ]
    if latest_kernels and not any(prior_profiles):
        notes.append(
            "prior entries carry no kernel profile (recorded before "
            "profiling landed); kernel deltas were not compared"
        )
    for key, stat in latest_kernels.items():
        latest_wall = stat.get("wall_s")
        if latest_wall is None:
            continue
        hist = [
            p[key].get("wall_s")
            for p in prior_profiles
            if key in p and p[key].get("wall_s") is not None
        ]
        base = _median_series(hist)
        if base is None:
            continue
        delta = latest_wall - base
        if delta <= 0:
            continue
        note = ""
        call_hist = [
            p[key].get("count")
            for p in prior_profiles
            if key in p and p[key].get("count") is not None
        ]
        call_base = _median_series([float(c) for c in call_hist])
        calls = stat.get("count")
        if calls and call_base:
            per_call = latest_wall / calls
            per_call_base = base / call_base
            note = (
                f"calls {int(call_base)} -> {calls}, per-call "
                f"{per_call_base * 1e6:.0f}us -> {per_call * 1e6:.0f}us"
            )
        causes.append(
            RegressionCause(
                kind="kernel",
                name=key,
                baseline=base,
                latest=latest_wall,
                delta=delta,
                note=note,
            )
        )

    # GC pause total.
    latest_gc = (latest.get("profile") or {}).get("gc", {})
    gc_latest = latest_gc.get("pause_s")
    gc_base = _median_series(
        [
            (e.get("profile") or {}).get("gc", {}).get("pause_s")
            for e in prior
            if (e.get("profile") or {}).get("gc", {}).get("pause_s")
            is not None
        ]
    )
    if gc_latest is not None and gc_base is not None:
        gc_delta = gc_latest - gc_base
        if gc_delta > 0:
            causes.append(
                RegressionCause(
                    kind="gc",
                    name="gc.pause_s",
                    baseline=gc_base,
                    latest=gc_latest,
                    delta=gc_delta,
                    note=f"{latest_gc.get('pauses', 0)} pauses in the "
                    "latest entry",
                )
            )

    causes.sort(key=lambda c: c.delta, reverse=True)
    return ExplainReport(
        workload=workload_text,
        n_prior=len(prior),
        causes=tuple(causes[:top]),
        notes=tuple(notes),
    )
