"""Observation must never perturb results: digest parity on the
standard 100-block corpus with tracing off, on, and under worker
parallelism.  This is the tentpole invariant of ``repro.obs`` -- every
recording entry point is observation-only, so the ``results_digest``
(summaries, list orders, every edge resolution) is bit-identical no
matter which collectors are active."""

from __future__ import annotations

import pytest

from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.machine.program import MachineProgram
from repro.machine.sbm import simulate_sbm
from repro.obs import metrics as obs_metrics
from repro.obs.provenance import collect_provenance
from repro.obs.runtime import analyze_trace
from repro.obs.spans import collect_trace
from repro.perf.parallel import fork_available, results_digest
from repro.synth.generator import GeneratorConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)

#: The standard corpus: 100 mid-size blocks, the same shape the perf
#: harness and the paper's per-point evaluation use.
POINT = ExperimentPoint(
    generator=GeneratorConfig(n_statements=20, n_variables=8),
    scheduler=SchedulerConfig(n_pes=8),
    count=100,
    master_seed=0,
)


@pytest.fixture(scope="module")
def baseline_digest():
    return results_digest(run_corpus(POINT, jobs=1))


class TestDigestParity:
    def test_traced_serial_matches_untraced(self, baseline_digest):
        with collect_trace() as tracer, obs_metrics.collect_metrics() as m, \
                collect_provenance():
            digest = results_digest(run_corpus(POINT, jobs=1))
        assert digest == baseline_digest
        # ... and the observation actually happened (not vacuous parity).
        assert tracer.spans
        assert m.counter("scheduler.barriers_inserted") > 0

    @needs_fork
    def test_parallel_matches_serial(self, baseline_digest):
        digest = results_digest(run_corpus(POINT, jobs=2))
        assert digest == baseline_digest

    @needs_fork
    def test_traced_parallel_matches_untraced_serial(self, baseline_digest):
        with collect_trace() as tracer, obs_metrics.collect_metrics() as m:
            digest = results_digest(run_corpus(POINT, jobs=2))
        assert digest == baseline_digest
        pids = {s.pid for s in tracer.spans}
        assert len(pids) >= 2, "worker spans must be adopted by the parent"
        assert m.counter("scheduler.barriers_inserted") > 0

    def test_trace_analysis_preserves_digest(self, baseline_digest):
        """Runtime trace analysis is observation-only: analyzing every
        simulated trace (with the metrics registry live, so the engine.*
        family is actually recorded) must not move the digest."""
        with obs_metrics.collect_metrics() as m:
            results = run_corpus(POINT, jobs=1)
            for result in results[:10]:
                program = MachineProgram.from_schedule(result.schedule)
                trace = simulate_sbm(program, rng=0)
                analyze_trace(program, trace)
            digest = results_digest(results)
        assert digest == baseline_digest
        # ... and the analysis actually recorded the engine.* family.
        assert m.counter("engine.analyses") == 10
        for name in (
            "engine.pe_utilization",
            "engine.barrier_wait",
            "engine.release_skew",
            "engine.superstep_imbalance",
            "engine.critical_path_len",
        ):
            assert m.histograms[name].count > 0, name

    def test_trace_digest_invariant_under_analysis(self):
        """The *trace itself* is identical whether or not it is analyzed
        (analysis never touches the engine or the RNG)."""
        result = run_corpus(POINT.with_(count=1), jobs=1)[0]
        program = MachineProgram.from_schedule(result.schedule)
        bare = simulate_sbm(program, rng=7)
        with obs_metrics.collect_metrics():
            analyzed = simulate_sbm(program, rng=7)
            analyze_trace(program, analyzed)
        assert bare.start == analyzed.start
        assert bare.finish == analyzed.finish
        assert bare.barrier_fire == analyzed.barrier_fire
        assert bare.pe_finish == analyzed.pe_finish

    def test_profiled_serial_matches_unprofiled(self, baseline_digest):
        """Continuous profiling (kernel timers, RSS sampling, GC hooks)
        is observation-only: the digest is bit-identical with the whole
        layer armed."""
        from repro.obs.prof import profile_block

        with obs_metrics.collect_metrics() as reg:
            digest = results_digest(run_corpus(POINT, jobs=1))
        assert digest == baseline_digest
        # ... and the profiling actually happened (not vacuous parity).
        assert profile_block(reg)["kernels"]

    @needs_fork
    def test_profiled_parallel_matches_unprofiled_serial(self, baseline_digest):
        from repro.obs.prof import profile_block

        with obs_metrics.collect_metrics() as reg:
            digest = results_digest(run_corpus(POINT, jobs=2))
        assert digest == baseline_digest
        assert profile_block(reg)["kernels"], "worker timings must ship home"

    @needs_fork
    def test_worker_metrics_cover_serial_metrics(self):
        """Worker registries are merged into the parent.  The parallel
        driver overdraws work past the acceptance target (chunk
        granularity, bounded in-flight speculation), so its counters may
        exceed the serial run's -- but never fall short: every counted
        decision of the serial corpus happened in some worker and was
        shipped home."""
        with obs_metrics.collect_metrics() as serial:
            run_corpus(POINT, jobs=1)
        with obs_metrics.collect_metrics() as parallel:
            run_corpus(POINT, jobs=2)
        for name in (
            "scheduler.barriers_inserted",
            "scheduler.resolution.barrier",
            "scheduler.resolution.serialized",
        ):
            assert parallel.counter(name) >= serial.counter(name) > 0, name
