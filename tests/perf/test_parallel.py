"""The corpus driver on a fork pool: jobs resolution, parity, check mode.

The determinism regression here is the load-bearing guarantee of the
whole performance layer: a seeded corpus scheduled with ``jobs=4`` must
produce the *identical* ``ScheduleResult`` sequence as the serial loop
(compared via a stable digest), so parallelization can never silently
move paper numbers.  Pool workers run the same chunk code as a serial
run, so ``REPRO_CHECK_KERNELS=1`` cross-checks them the same way.
"""

from __future__ import annotations

import itertools

import pytest

from repro import kernels
from repro.core.scheduler import SchedulerConfig
from repro.experiments.sweeps import ExperimentPoint, run_corpus, run_point
from repro.ir.tuples import TupleProgram
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import profile_block
from repro.obs.provenance import collect_provenance
from repro.perf import parallel
from repro.perf.parallel import (
    CompactResult,
    fork_available,
    resolve_jobs,
    results_digest,
)
from repro.synth import genvec
from repro.synth.generator import GeneratorConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)


def small_point(**kw):
    defaults = dict(
        generator=GeneratorConfig(n_statements=15, n_variables=6),
        scheduler=SchedulerConfig(n_pes=4),
        count=8,
        master_seed=21,
    )
    defaults.update(kw)
    return ExperimentPoint(**defaults)


def _accept_even_syncs(case) -> bool:  # module-level: must cross processes
    return case.implied_synchronizations % 2 == 0


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestDeterminism:
    @needs_fork
    def test_serial_vs_jobs4_identical(self):
        """The determinism regression: byte-identical result sequences."""
        point = small_point()
        serial = run_corpus(point, jobs=1)
        parallel = run_corpus(point, jobs=4)
        assert len(parallel) == point.count
        assert results_digest(serial) == results_digest(parallel)

    @needs_fork
    def test_accept_filter_parity(self):
        point = small_point(count=5)
        serial = run_corpus(point, accept=_accept_even_syncs, jobs=1)
        parallel = run_corpus(point, accept=_accept_even_syncs, jobs=4)
        assert results_digest(serial) == results_digest(parallel)

    @needs_fork
    def test_run_point_stats_match(self):
        point = small_point()
        s1 = run_point(point, jobs=1)
        s4 = run_point(point, jobs=4)
        assert s1.per_benchmark == s4.per_benchmark
        assert s1.mean_makespan_max == s4.mean_makespan_max

    def test_digest_sensitive_to_results(self):
        a = run_corpus(small_point())
        b = run_corpus(small_point(master_seed=22))
        assert results_digest(a) != results_digest(b)
        assert results_digest(a) != results_digest(a[:-1])


class TestCollectors:
    def test_worker_ships_exactly_the_parents_collectors(self):
        """A worker installs the tracer and registry its parent has
        active, and no other, and ships back each one's state; the
        registry carries the chunk's stage times."""
        point = small_point(count=2)
        for collectors in itertools.product((False, True), repeat=2):
            results, shipped = parallel._run_worker(
                point, [11, 12], None, True, collectors
            )
            assert len(results) == 2
            assert [state is not None for state in shipped] == list(
                collectors
            ), collectors
            trace_state, metrics = shipped
            if trace_state is not None:
                assert trace_state["spans"]
            if metrics is not None:
                assert metrics["counters"]
                profile = profile_block(MetricsRegistry.from_dict(metrics))
                assert profile["stages"]["schedule"]["count"] == 1

    @needs_fork
    def test_provenance_recorder_sees_pooled_run(self):
        """Forked workers would record into their copy of the parent's
        recorder, so a run under a recorder stays in-process."""
        point = ExperimentPoint(count=8, master_seed=3)
        runs = []
        for jobs in (1, 2):
            with collect_provenance() as recorder:
                digest = results_digest(run_corpus(point, jobs=jobs))
            runs.append((recorder.as_dict(), digest))
        assert runs[0][0]["barriers"] and runs[0][0]["merges"]
        assert runs[1] == runs[0]


class _NoPool:
    def __init__(self, *args, **kwargs) -> None:
        raise AssertionError("a process pool was created")


class TestFallbacks:
    def test_unpicklable_accept_falls_back(self, monkeypatch):
        """A closure accept filter cannot cross processes, so the chunks
        run in-process, uncompacted, and no pool is ever created."""
        point = small_point(count=4)
        threshold = 0

        def accept(case):  # closure -> unpicklable
            return case.implied_synchronizations >= threshold

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
        results = run_corpus(point, accept=accept, jobs=4, compact=True)
        assert not any(isinstance(r, CompactResult) for r in results)
        assert results_digest(results) == results_digest(
            run_corpus(point, jobs=1)
        )

    def test_jobs1_never_pools(self, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
        point = small_point(count=2)
        assert len(run_corpus(point, jobs=1, compact=True)) == 2

    @needs_fork
    def test_exhausted_filter_raises_like_serial(self):
        point = small_point(count=2)
        messages = []
        for jobs in (1, 4):
            with pytest.raises(RuntimeError, match="accepted only") as err:
                run_corpus(point, accept=_reject_everything, jobs=jobs)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def _reject_everything(case) -> bool:  # module-level: must cross processes
    return False


def _drop_first_cases_last_tuple(compile_drawn_cases):
    """Wrap genvec's fused front end so its first case loses a tuple."""

    def perturbed(drawn, config, timing):
        cases = compile_drawn_cases(drawn, config, timing)
        first = cases[0]
        object.__setattr__(
            first, "program", TupleProgram(first.program.tuples[:-1])
        )
        return cases

    return perturbed


@needs_fork
@pytest.mark.skipif(not kernels.have_numpy(), reason="numpy not available")
class TestCheckMode:
    """``REPRO_CHECK_KERNELS=1`` cross-checks the vectorized front end in
    pool workers, and their dispatch tallies reach the parent."""

    @pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
    def test_workers_cross_check_genvec(self, monkeypatch, compact):
        monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
        # Fork workers inherit the patch.
        monkeypatch.setattr(
            genvec,
            "compile_drawn_cases",
            _drop_first_cases_last_tuple(genvec.compile_drawn_cases),
        )
        with pytest.raises(AssertionError, match="failed for 'genvec'"):
            run_corpus(small_point(count=16), jobs=2, compact=compact)

    def test_clean_run_tallies_genvec(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
        point = small_point(count=16)
        with obs_metrics.collect_metrics() as metrics:
            parallel_digest = results_digest(run_corpus(point, jobs=2))
        assert metrics.counter("kernels.calls.genvec.numpy") > 0
        assert metrics.counter("kernels.check.checked") > 0
        assert metrics.counter("kernels.check.mismatches") == 0
        assert parallel_digest == results_digest(run_corpus(point, jobs=1))
