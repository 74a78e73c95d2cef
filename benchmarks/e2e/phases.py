"""The measured phases of one workload, each run in a fresh process.

``python -m benchmarks.e2e.phases '<request json>'`` runs one phase and
prints its outcome as one JSON line; :mod:`benchmarks.e2e.harness`
starts these processes.  The tests call :func:`run_phase` in-process on
tiny workloads.

Two phases exist.  *setup* runs the workload's first block once, so
the parent can time a cold start.  *measure* runs a fixed number of
rounds; each round is one corpus sweep (every point through
``run_corpus`` + ``aggregate_results``) with one pass over the blocks
shared out between its points.  Every point and every block is timed
once per round, and an item's time is the best of its rounds.  Shared
2-vCPU VMs have slow spells of one to tens of seconds that make
everything 30-50% slower.  Spreading each item's repeats over the whole
run keeps a short spell out of its best time, and slicing the block
pass keeps a spell from covering every block of a pass at once.  The
round count never depends on how fast the code runs, so a parent and a
change are measured with the same estimator.

Every call into ``repro`` uses its public API.  Checks and digests run
outside the timed regions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from repro import kernels
from repro.core.labeling import compute_heights
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.core.validate import find_violations
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.ir.dag import ENTRY
from repro.ir.interp import interpret
from repro.machine.dbm import simulate_dbm
from repro.machine.program import MachineProgram
from repro.machine.sbm import simulate_sbm
from repro.metrics.stats import aggregate_results
from repro.perf.parallel import digest_record, results_digest
from repro.synth.corpus import compile_case
from repro.synth.generator import GeneratorConfig
from repro.synth.genvec import compile_cases

from benchmarks.e2e.ledger import Ledger
from benchmarks.e2e.spec import N_VARIABLES, OUT_DIR, ROUNDS, WORKLOADS, Workload

#: ``SyncCounts`` fields summed over the corpus for the layer ratios.
COUNT_FIELDS = (
    "total_edges",
    "serialized_edges",
    "path_edges",
    "timing_edges",
    "barrier_edges",
    "merges",
    "repairs",
    "path_explosions",
)


def build_points(workload: Workload, seed: int) -> list[ExperimentPoint]:
    scheduler = SchedulerConfig(**workload.scheduler)
    return [
        ExperimentPoint(
            generator=GeneratorConfig(n_statements=n, n_variables=N_VARIABLES),
            scheduler=scheduler,
            count=workload.count,
            master_seed=master_seed,
        )
        for n, master_seed in workload.points(seed)
    ]


def case_seeds(master_seed: int, n: int) -> list[int]:
    """The first ``n`` case seeds of a point, as ``run_corpus`` draws them."""
    stream = random.Random(master_seed)
    return [stream.getrandbits(48) for _ in range(n)]


def critical_path_total(point: ExperimentPoint) -> float:
    """Sum of the worst-case critical-path lengths of the point's cases.

    No schedule of a case can finish before its critical path, so the
    corpus makespan over this total is the schedules' length relative to
    the best possible.  The ratio varies far less between corpora than
    the makespan itself.
    """
    cases = compile_cases(
        point.generator, case_seeds(point.master_seed, point.count), point.timing
    )
    return sum(compute_heights(case.dag)[ENTRY].hi for case in cases)


def record_hash(result) -> str:
    """sha256 of one result's ``digest_record``."""
    blob = json.dumps(digest_record(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_block(point: ExperimentPoint, case_seed: int):
    """One block, as ``repro-sbm simulate FILE`` runs it."""
    case = compile_case(point.generator, case_seed, point.timing)
    config = point.scheduler.with_(seed=case_seed & 0xFFFFFFFF)
    result = schedule_dag(case.dag, config)
    program = MachineProgram.from_schedule(result.schedule)
    simulate = simulate_sbm if config.machine == "sbm" else simulate_dbm
    trace = simulate(program, rng=case_seed & 0xFFFFFFFF)
    return case, result, program, trace


def check_block(case, result, program, trace) -> list[str]:
    """Names of the failed output checks of one block (empty: all pass)."""
    failed = []
    if trace.verify(program.edges):
        failed.append("trace.verify")
    if find_violations(result.schedule, result.config.insertion):
        failed.append("find_violations")
    rng = random.Random(case.seed)
    env = {name: rng.randint(-1000, 1000) for name in case.block.live_in_variables()}
    if interpret(case.program, env) != case.block.execute(env):
        failed.append("interpret")
    return failed


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _region(ledger: Ledger | None, tag: str):
    return ledger.active(tag) if ledger is not None else nullcontext()


class CorpusSweeps:
    """The corpus half of the rounds: one timed call per point per sweep.

    The first sweep is digested; later sweeps must reproduce its
    per-case sync counts.  The cases' critical paths are computed up
    front, outside the timed calls.
    """

    def __init__(
        self, workload: Workload, seed: int, ledger: Ledger | None = None
    ) -> None:
        self.name = workload.name
        self.points = build_points(workload, seed)
        self.labels = [workload.point_label(seed, i) for i in range(len(self.points))]
        self.jobs = workload.effective_jobs()
        self.ledger = ledger
        self.wanted = workload.block_depth()
        n = len(self.points)
        self.best = [float("inf")] * n
        self.digests: list[str | None] = [None] * n
        self.first_counts: list[list | None] = [None] * n
        self.records: dict[str, list[str]] = {}
        self.failures: list[str] = []
        self.counts = dict.fromkeys(COUNT_FIELDS, 0)
        self.critical = [critical_path_total(point) for point in self.points]
        self.quality = dict.fromkeys(
            ("barriers", "makespan_max", "critical_path", "pes_used"), 0.0
        )
        self.sweep_cases = self.cases = self.failed_cases = self.sweeps = 0
        self.timed = self.parent_cpu = self.children_cpu = 0.0

    def sweep(self, between: Callable[[int], None]) -> None:
        """Time every point once, calling ``between(index)`` after each."""
        for index, point in enumerate(self.points):
            self._point(index, point)
            between(index)
        self.sweeps += 1

    def _point(self, index: int, point: ExperimentPoint) -> None:
        label = self.labels[index]
        cpu0, children0 = time.process_time(), _children_cpu_s()
        try:
            with _region(self.ledger, f"{self.name}/p{index}"):
                start = time.perf_counter()
                results = run_corpus(point, jobs=self.jobs, compact=True)
                stats = aggregate_results(results)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # report the point, keep measuring
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            self.cases += point.count
            self.failed_cases += point.count
            return
        self.parent_cpu += time.process_time() - cpu0
        self.children_cpu += _children_cpu_s() - children0
        self.best[index] = min(self.best[index], elapsed)
        self.timed += elapsed
        self.cases += len(results)
        sync_counts = [r.counts for r in results]
        if len(results) != point.count:
            self.failures.append(f"{label}: {len(results)} of {point.count} cases")
            self.failed_cases += point.count
        elif self.sweeps == 0:
            self.digests[index] = results_digest(results)
            self.first_counts[index] = sync_counts
            self.records[str(index)] = [
                record_hash(r) for r in results[: self.wanted.get(index, 0)]
            ]
            n = stats.n_benchmarks
            self.sweep_cases += n
            self.quality["barriers"] += stats.mean_barriers * n
            self.quality["makespan_max"] += stats.mean_makespan_max * n
            self.quality["pes_used"] += stats.mean_processors_used * n
            self.quality["critical_path"] += self.critical[index]
            for c in sync_counts:
                for name in COUNT_FIELDS:
                    self.counts[name] += getattr(c, name)
        elif sync_counts != self.first_counts[index]:
            self.failures.append(f"{label}: sweep {self.sweeps + 1} differs from sweep 1")
            self.failed_cases += len(results)
        del results, stats, sync_counts
        gc.collect()

    def outcome(self) -> dict:
        whole = None
        if all(self.digests):
            blob = "\n".join(self.digests).encode("utf-8")
            whole = hashlib.sha256(blob).hexdigest()
        per_case = self.sweep_cases or 1
        return {
            "jobs": self.jobs,
            "sweeps": self.sweeps,
            "cases": self.cases,
            "failed_cases": self.failed_cases,
            "timed_s": self.timed,
            "sweep_cases": self.sweep_cases,
            "best_sweep_s": sum(t for t in self.best if t != float("inf")),
            "parent_cpu_s": self.parent_cpu,
            "children_cpu_s": self.children_cpu,
            "digest": whole,
            "point_digests": self.digests,
            "records": self.records,
            "failures": self.failures,
            "counts": {"cases": self.sweep_cases, **self.counts},
            "barriers_per_case": self.quality["barriers"] / per_case,
            "makespan_max_mean": self.quality["makespan_max"] / per_case,
            "makespan_over_cp": self.quality["makespan_max"]
            / (self.quality["critical_path"] or 1.0),
            "pes_used_mean": self.quality["pes_used"] / per_case,
        }


class BlockPasses:
    """The block half of the rounds: the blocks timed in turn, cyclically.

    The output checks and the ``digest_record`` hash come from each
    block's first run (later runs redo identical work).
    """

    def __init__(
        self, workload: Workload, seed: int, ledger: Ledger | None = None
    ) -> None:
        self.name = workload.name
        self.points = build_points(workload, seed)
        self.ledger = ledger
        plan = workload.block_plan()
        seeds = {
            p: case_seeds(self.points[p].master_seed, n)
            for p, n in workload.block_depth().items()
        }
        self.blocks = [(p, seeds[p][i]) for p, i in plan]
        self.outcomes = [
            {"point": p, "index": i, "record": None, "failures": []}
            for p, i in plan
        ]
        self.best = [float("inf")] * len(plan)
        self.runs = 0
        self.timed = 0.0
        self.cursor = 0
        # Warm-up: lazy imports and first-call set-up stay out of the times.
        run_block(self.points[self.blocks[0][0]], self.blocks[0][1])

    def run(self, count: int) -> None:
        """Time the next ``count`` blocks."""
        for _ in range(count):
            k = self.cursor % len(self.blocks)
            first = self.cursor < len(self.blocks)
            self.cursor += 1
            p, case_seed = self.blocks[k]
            outcome = self.outcomes[k]
            if outcome["failures"]:
                continue
            try:
                with _region(self.ledger, f"{self.name}/b{k}"):
                    start = time.perf_counter()
                    case, result, program, trace = run_block(self.points[p], case_seed)
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # report the block, keep measuring
                outcome["failures"].append(f"{type(exc).__name__}: {exc}")
                continue
            self.best[k] = min(self.best[k], elapsed * 1e3)
            self.runs += 1
            self.timed += elapsed
            if first:
                outcome["failures"].extend(check_block(case, result, program, trace))
                outcome["record"] = record_hash(result)

    def outcome(self) -> dict:
        return {
            "passes": self.cursor // len(self.blocks),
            "runs": self.runs,
            "timed_s": self.timed,
            "best_ms": [t for t in self.best if t != float("inf")],
            "blocks": self.outcomes,
        }


def measure_phase(
    workload: Workload, seed: int, rounds: int, ledger: Ledger | None = None
) -> dict:
    """``rounds`` rounds of one corpus sweep and one block pass.

    The block pass of a round is shared out evenly between the points.
    A failed corpus check ends the rounds early.  The kernel dispatch
    tally is cleared first, so it counts the rounds' calls only.
    """
    corpus = CorpusSweeps(workload, seed, ledger)
    blocks = BlockPasses(workload, seed, ledger)
    n_points, n_blocks = len(corpus.points), len(blocks.blocks)

    def between(index: int) -> None:
        blocks.run(n_blocks * (index + 1) // n_points - n_blocks * index // n_points)

    kernels.reset_calls()
    for _ in range(rounds):
        corpus.sweep(between)
        if corpus.failures:
            break
    return {"corpus": corpus.outcome(), "blocks": blocks.outcome()}


def setup_phase(workload: Workload, seed: int) -> None:
    """The first block of the workload, once (what a cold start pays)."""
    points = build_points(workload, seed)
    p, i = workload.block_plan()[0]
    run_block(points[p], case_seeds(points[p].master_seed, i + 1)[i])


def ledger_summary(ledger: Ledger) -> dict:
    return {
        "layers": ledger.totals(),
        "local_self_s": ledger.self_total(),
        "gc_pause_s": ledger.gc_pause_s,
        "gc_collections": ledger.gc_collections,
        "missing": ledger.missing,
        "spans": len(ledger.spans),
        "dropped": ledger.dropped,
    }


def kernel_calls() -> dict[str, int]:
    """This process's dispatch tally, 0 for every kernel/backend not called."""
    info = kernels.kernels_info()
    keys = (
        f"kernels.calls.{kernel}.{backend}"
        for kernel in info["thresholds"]
        for backend in ("python", "numpy")
    )
    return {key: info["calls"].get(key, 0) for key in keys}


def peak_rss_mb() -> float:
    """Peak RSS of this process and its waited-for children (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "backend": kernels.kernels_info()["resolved"],
    }


def run_phase(
    workload: Workload,
    phase: str,
    seed: int,
    rounds: int = ROUNDS,
    trace: bool = False,
    spans_stem: Path | None = None,
) -> dict:
    """Run one phase in this process; ``trace`` turns the ledger on.

    A traced phase writes its spans next to ``spans_stem`` when given.
    """
    if phase == "setup":
        setup_phase(workload, seed)
        return {"rss_mb": peak_rss_mb()}
    ledger = Ledger() if trace else None
    with ledger if ledger is not None else nullcontext():
        out = measure_phase(workload, seed, rounds, ledger)
    if ledger is not None:
        out["ledger"] = ledger_summary(ledger)
        if spans_stem is not None:
            ledger.write(spans_stem)
    out["kernels"] = kernel_calls()
    out["env"] = environment()
    out["rss_mb"] = peak_rss_mb()
    return out


def main(argv: list[str]) -> int:
    request = json.loads(argv[0])
    workload = WORKLOADS[request["workload"]]
    trace = bool(request.get("trace"))
    out = run_phase(
        workload,
        request["phase"],
        request["seed"],
        request.get("rounds", ROUNDS),
        trace,
        OUT_DIR / f"{workload.name}.{request['phase']}" if trace else None,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
