"""Parent side of a run: phase subprocesses, metrics, output checks.

Each phase of a workload runs in a fresh ``python -m
benchmarks.e2e.phases`` process whose environment has every
``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``.  This module
derives the metrics from the phases' JSON outcomes and accounts every
failed check against the cases and block runs attempted.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from benchmarks.e2e.spec import ROOT, SETUP_STARTS, Workload

#: Wall-clock limit of one phase process (the whole run must end in 180 s).
PHASE_TIMEOUT_S = 170


class PhaseError(RuntimeError):
    """A phase process crashed, timed out or printed no outcome."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _start(request: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.phases", json.dumps(request)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout also stops its pool workers
    )


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _describe(request: dict) -> str:
    return f"{request['workload']}: {request['phase']} phase"


def _failure(request: dict, proc: subprocess.Popen, stderr: str) -> PhaseError:
    lines = [line for line in stderr.strip().splitlines() if line.strip()]
    last = lines[-1] if lines else "no error output"
    return PhaseError(f"{_describe(request)} exited {proc.returncode}: {last}")


def spawn(request: dict) -> dict:
    """Run one phase process to completion; return its JSON outcome."""
    proc = _start(request)
    try:
        out, err = proc.communicate(timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(proc)
        proc.communicate()
        raise PhaseError(f"{_describe(request)} timed out")
    if proc.returncode != 0 or not out.strip():
        raise _failure(request, proc, err)
    return json.loads(out.strip().splitlines()[-1])


def time_setup(workload: Workload, seed: int) -> tuple[float, float]:
    """Seconds from process start to the first block done, and peak RSS."""
    request = {"phase": "setup", "workload": workload.name, "seed": seed}
    start = time.perf_counter()
    proc = _start(request)
    watchdog = threading.Timer(PHASE_TIMEOUT_S, _kill, (proc,))
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or not line.strip():
        raise _failure(request, proc, err)
    return elapsed, json.loads(line)["rss_mb"]


def _check_outputs(
    workload: Workload, seed: int, measure: dict, expected: str | None
) -> tuple[int, list[str]]:
    """Failed cases and block runs, and one message per failed check."""
    name = workload.name
    corpus, blocks = measure["corpus"], measure["blocks"]
    failures = [f"{name}, {msg}" for msg in corpus["failures"]]
    failed_cases = corpus["failed_cases"]
    if expected is not None and corpus["digest"] != expected:
        failures.append(
            f"{name}: corpus digest {corpus['digest']} != expected {expected}"
        )
        failed_cases = corpus["cases"]
    failed_runs = 0
    for k, block in enumerate(blocks["blocks"]):
        checks = list(block["failures"])
        reference = corpus["records"].get(str(block["point"]), [])
        if block["record"] is not None and (
            block["index"] >= len(reference)
            or reference[block["index"]] != block["record"]
        ):
            checks.append("digest_record differs from the corpus")
        if checks:
            failed_runs += blocks["passes"]
            failures.append(
                f"{name}, {workload.point_label(seed, block['point'])}, "
                f"block {k}: {'; '.join(checks)}"
            )
    return failed_cases + failed_runs, failures


def _result(measure: dict, metrics: dict, failed: int, failures: list[str]) -> dict:
    corpus, blocks = measure["corpus"], measure["blocks"]
    return {
        "metrics": metrics,
        "attempted": corpus["cases"] + len(blocks["blocks"]) * blocks["passes"],
        "failed": failed,
        "failures": failures,
        "digest": corpus["digest"],
        "jobs": corpus["jobs"],
        "rounds": corpus["sweeps"],
        "cases": corpus["cases"],
        "block_runs": blocks["runs"],
        "env": measure["env"],
    }


def run_workload(workload: Workload, seed: int, expected: str | None) -> dict:
    """Cold starts around one measure process; the end-to-end metrics.

    Two cold starts run before the measure process and three after, so
    a slow spell of the machine rarely covers the median.
    """
    request = {"workload": workload.name, "seed": seed}
    setups = [time_setup(workload, seed) for _ in range(2)]
    measure = spawn({**request, "phase": "measure"})
    setups += [time_setup(workload, seed) for _ in range(SETUP_STARTS - 2)]
    failed, failures = _check_outputs(workload, seed, measure, expected)
    result = _result(measure, {}, failed, failures)
    result["metrics"] = end_to_end_metrics(
        setups, measure, failed / result["attempted"]
    )
    return result


def end_to_end_metrics(
    setups: list[tuple[float, float]], measure: dict, fail_rate: float
) -> dict:
    """The end-to-end metrics from the phases' outcomes."""
    corpus, best_ms = measure["corpus"], measure["blocks"]["best_ms"]
    return {
        "setup_s": statistics.median(t for t, _ in setups),
        "cases_per_s": corpus["sweep_cases"] / corpus["best_sweep_s"],
        "block_ms_p50": statistics.median(best_ms),
        "block_ms_p90": statistics.quantiles(best_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": max([measure["rss_mb"]] + [rss for _, rss in setups]),
        "fail_rate": fail_rate,
        "barriers_per_case": corpus["barriers_per_case"],
        "makespan_max_mean": corpus["makespan_max_mean"],
        "makespan_over_cp": corpus["makespan_over_cp"],
    }


def trace_workload(workload: Workload, seed: int, expected: str | None) -> dict:
    """One untraced and one traced round; the per-layer metrics."""
    request = {
        "workload": workload.name,
        "seed": seed,
        "phase": "measure",
        "rounds": 1,
    }
    untraced = spawn(request)
    traced = spawn({**request, "trace": True})
    failed, failures = _check_outputs(workload, seed, traced, expected)
    if traced["corpus"]["digest"] != untraced["corpus"]["digest"]:
        failures.append(
            f"{workload.name}: traced digest {traced['corpus']['digest']} != "
            f"untraced {untraced['corpus']['digest']}"
        )
        failed = max(failed, traced["corpus"]["cases"])
    result = _result(traced, layer_metrics(untraced, traced), failed, failures)
    result["missing"] = traced["ledger"]["missing"]
    result["spans"] = traced["ledger"]["spans"]
    result["spans_dropped"] = traced["ledger"]["dropped"]
    return result


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced round, against an untraced one."""
    ledger, corpus = traced["ledger"], traced["corpus"]
    metrics: dict[str, float] = {}
    for layer, totals in ledger["layers"].items():
        metrics[f"{layer}.self_s"] = totals["self_s"]
        metrics[f"{layer}.calls"] = totals["calls"]
    wall = corpus["timed_s"] + traced["blocks"]["timed_s"]
    untraced_wall = untraced["corpus"]["timed_s"] + untraced["blocks"]["timed_s"]
    metrics["bench.self_s"] = wall - ledger["local_self_s"]
    metrics["trace.coverage"] = ledger["local_self_s"] / wall
    metrics["trace.overhead"] = wall / untraced_wall
    metrics["trace.missing"] = len(ledger["missing"])
    metrics["gc.pause_s"] = ledger["gc_pause_s"]
    metrics["gc.collections"] = ledger["gc_collections"]
    metrics["driver.parent_cpu_s"] = corpus["parent_cpu_s"]
    metrics["driver.children_cpu_s"] = corpus["children_cpu_s"]
    metrics["driver.wait_s"] = max(0.0, corpus["timed_s"] - corpus["parent_cpu_s"])

    c = corpus["counts"]
    n = c["cases"] or 1
    proved = c["path_edges"] + c["timing_edges"]
    cross = c["total_edges"] - c["serialized_edges"]
    inserted = c["barrier_edges"] + c["repairs"]
    metrics["core.schedule.pes_used_mean"] = corpus["pes_used_mean"]
    metrics["core.barrier_insert.classify.proof_ratio"] = proved / cross if cross else 0.0
    metrics["core.barrier_insert.classify.path_explosions"] = c["path_explosions"]
    metrics["core.barrier_insert.place.barrier_edges_per_case"] = c["barrier_edges"] / n
    metrics["core.merging.merges_per_case"] = c["merges"] / n
    metrics["core.merging.merge_ratio"] = c["merges"] / inserted if inserted else 0.0
    metrics["core.validate.repairs_per_case"] = c["repairs"] / n
    metrics.update(traced["kernels"])
    return metrics
