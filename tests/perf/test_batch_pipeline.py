"""The one corpus driver: digest parity and padded-tensor edges.

Every way :func:`run_corpus` can run a point -- in-process or on a fork
pool, with full or compact results, with or without numpy, filtered or not,
at any chunk size -- must be *bit-identical* to the per-case reference
loop below (``generate_cases`` + ``schedule_dag``).  The padded 3-D
tensors of :mod:`repro.kernels.batch` are additionally pinned at the
uint64 word edges (63/64/65 bits), where an off-by-one in the word count
silently truncates the widest case.
"""

from __future__ import annotations

import pytest

from repro import kernels
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.obs import metrics as obs_metrics
from repro.perf import parallel
from repro.perf.parallel import CompactResult, fork_available, results_digest
from repro.synth.corpus import generate_cases
from repro.synth.generator import GeneratorConfig

from tests.conftest import without_numpy

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform has no fork start method"
)

needs_numpy = pytest.mark.skipif(
    not kernels.have_numpy(), reason="numpy not available"
)

#: ``run_corpus`` paths: mode -> (jobs, compact).
MODES = {"serial": (1, False), "jobs2": (2, False), "jobs2-compact": (2, True)}


def batch_point(**kw):
    defaults = dict(
        generator=GeneratorConfig(n_statements=24, n_variables=8),
        scheduler=SchedulerConfig(n_pes=8),
        count=20,
        master_seed=17,
    )
    defaults.update(kw)
    return ExperimentPoint(**defaults)


def accept_even_syncs(case) -> bool:  # module-level: must cross processes
    return case.implied_synchronizations % 2 == 0


def reject_everything(case) -> bool:  # module-level: must cross processes
    return False


def reference_digest(point, accept=None) -> str:
    """The specification: one case at a time on the python path."""
    with without_numpy(), pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_CHECK", raising=False)
        cases = generate_cases(
            point.generator,
            point.count,
            point.master_seed,
            timing=point.timing,
            accept=accept,
        )
        return results_digest(
            [
                schedule_dag(
                    case.dag, point.scheduler.with_(seed=case.seed & 0xFFFFFFFF)
                )
                for case in cases
            ]
        )


@pytest.fixture(scope="module")
def reference():
    """Reference digests of :func:`batch_point`, keyed by filter."""
    point = batch_point()
    return {
        None: reference_digest(point),
        accept_even_syncs: reference_digest(point, accept_even_syncs),
    }


def use_backend(request, backend):
    """Select a path.  python runs with numpy patched out; on numpy the
    vectorized generator and the batched scheduler run on every chunk,
    however small."""
    monkeypatch = request.getfixturevalue("monkeypatch")
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    if backend == "python":
        request.getfixturevalue("no_numpy")
        return
    if not kernels.have_numpy():
        pytest.skip("numpy not available")
    monkeypatch.setitem(kernels.THRESHOLDS, "genvec", 1)
    monkeypatch.setitem(kernels.THRESHOLDS, "batch", 1)


def mode_digest(point, mode, accept=None) -> str:
    """Run ``point`` one way; compact pool runs must return compact rows."""
    jobs, compact = MODES[mode]
    if jobs > 1 and not fork_available():
        pytest.skip("platform has no fork start method")
    results = run_corpus(point, accept=accept, jobs=jobs, compact=compact)
    assert len(results) == point.count
    assert all(isinstance(r, CompactResult) == compact for r in results)
    return results_digest(results)


class TestDigestParityMatrix:
    """One digest across path x backend x filter x chunk size."""

    @pytest.mark.parametrize(
        "accept", [None, accept_even_syncs], ids=["unfiltered", "filtered"]
    )
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("mode", list(MODES))
    def test_matches_reference(self, request, reference, mode, backend, accept):
        use_backend(request, backend)
        assert mode_digest(batch_point(), mode, accept) == reference[accept]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_batched_vs_unbatched(
        self, request, monkeypatch, reference, backend
    ):
        """In-process chunks of 1 and 3 seeds (a ragged tail) match the
        per-case reference."""
        use_backend(request, backend)
        for chunk in (1, 3):
            monkeypatch.setattr(parallel, "DEFAULT_BATCH", chunk)
            assert mode_digest(batch_point(), "serial") == reference[None]

    @needs_fork
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_parallel_matches_batched_serial(
        self, request, monkeypatch, reference, backend
    ):
        """Pool chunks of 1 and 3 seeds match the reference, full and
        compact."""
        use_backend(request, backend)
        for chunk in (1, 3):
            monkeypatch.setattr(parallel, "DEFAULT_BATCH", chunk)
            for mode in ("jobs2", "jobs2-compact"):
                assert mode_digest(batch_point(), mode) == reference[None]

    def test_batched_filtered_corpus(self, request, monkeypatch, reference):
        """A filter keeps cases by position at every chunk size."""
        use_backend(request, "numpy" if kernels.have_numpy() else "python")
        modes = ["serial", "jobs2"] if fork_available() else ["serial"]
        for chunk in (1, 3):
            monkeypatch.setattr(parallel, "DEFAULT_BATCH", chunk)
            for mode in modes:
                digest = mode_digest(batch_point(), mode, accept_even_syncs)
                assert digest == reference[accept_even_syncs]

    def test_batched_exhaustion_matches_serial(self, monkeypatch):
        """An exhausted filter fails with generate_cases' message at any
        chunk size, in-process and on the pool."""
        point = batch_point(count=3)
        with pytest.raises(RuntimeError) as err:
            list(
                generate_cases(
                    point.generator,
                    point.count,
                    point.master_seed,
                    accept=reject_everything,
                )
            )
        expected = str(err.value)
        jobs_values = (1, 2) if fork_available() else (1,)
        for chunk in (1, 3, parallel.DEFAULT_BATCH):
            monkeypatch.setattr(parallel, "DEFAULT_BATCH", chunk)
            for jobs in jobs_values:
                with pytest.raises(RuntimeError) as err:
                    run_corpus(point, accept=reject_everything, jobs=jobs)
                assert str(err.value) == expected

    @needs_numpy
    def test_check_mode_batched(self, monkeypatch):
        """Check mode forces the kernels on and cross-checks per case."""
        monkeypatch.setenv("REPRO_CHECK", "1")
        point = batch_point(count=6)
        with obs_metrics.collect_metrics() as metrics:
            digest = results_digest(run_corpus(point, jobs=1))
        assert digest == reference_digest(point)
        assert metrics.counter("kernels.calls.genvec.numpy") == 1
        assert metrics.counter("kernels.calls.batch.numpy") == 1
        assert metrics.counter("kernels.check.checked") > 0
        assert metrics.counter("kernels.check.mismatches") == 0


class TestBatchedScheduling:
    @needs_numpy
    def test_schedule_cases_matches_schedule_dag(self):
        from repro.core.batchrun import schedule_cases
        from repro.synth.corpus import compile_case

        generator = GeneratorConfig(n_statements=30, n_variables=8)
        cases = [compile_case(generator, seed) for seed in range(40)]
        configs = [
            SchedulerConfig(n_pes=16, seed=case.seed & 0xFFFFFFFF)
            for case in cases
        ]
        serial = [
            schedule_dag(case.dag, config)
            for case, config in zip(cases, configs)
        ]
        batched = schedule_cases([case.dag for case in cases], configs)
        assert results_digest(serial) == results_digest(batched)

    def test_small_chunk_falls_back_to_python(self, monkeypatch):
        """Below the batch threshold the per-case scheduler runs."""
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        from repro.core.batchrun import schedule_cases
        from repro.synth.corpus import compile_case

        case = compile_case(GeneratorConfig(), 5)
        config = SchedulerConfig(n_pes=4)
        kernels.reset_calls()
        [result] = schedule_cases([case.dag], [config])
        calls = kernels.kernels_info()["calls"]
        assert calls.get("kernels.calls.batch.python") == 1
        assert "kernels.calls.batch.numpy" not in calls
        reference = schedule_dag(case.dag, config)
        assert results_digest([result]) == results_digest([reference])


@needs_numpy
class TestWordEdges:
    """Padded uint64 tensors at 63/64/65 bits and rows."""

    @pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 127, 128, 129])
    def test_pack_roundtrip(self, n_bits):
        from repro.kernels.batch import pack_bitmats, unpack_bitmats

        rows = [
            [0, 1, (1 << n_bits) - 1, 1 << (n_bits - 1)],
            [(1 << n_bits) - 1],
            [],
        ]
        tensor, sizes = pack_bitmats(rows, [n_bits] * len(rows))
        assert unpack_bitmats(tensor, sizes) == rows

    @pytest.mark.parametrize("n_nodes", [63, 64, 65])
    def test_reach_batch_at_word_edges(self, n_nodes):
        """A chain DAG with n nodes reaches everything downstream."""
        from repro.kernels.batch import reach_batch

        succ_idx = [
            [[p + 1] if p + 1 < n_nodes else [] for p in range(n_nodes)]
        ]
        self_bits = [[1 << p for p in range(n_nodes)]]
        [rows] = reach_batch(succ_idx, self_bits, [n_nodes])
        for p in range(n_nodes):
            expected = 0
            for q in range(p + 1, n_nodes):
                expected |= 1 << q
            assert rows[p] == expected

    @pytest.mark.parametrize("n_statements", [60, 63, 66])
    def test_mixed_widths_share_one_tensor(self, n_statements):
        """Cases whose node counts straddle a word edge batch together."""
        from repro.core.batchrun import schedule_cases
        from repro.synth.corpus import compile_case

        generator = GeneratorConfig(n_statements=n_statements, n_variables=8)
        cases = [compile_case(generator, seed) for seed in range(20)]
        sizes = {len(case.dag.nodes) for case in cases}
        assert len(sizes) > 1  # genuinely ragged chunk
        configs = [
            SchedulerConfig(n_pes=8, seed=case.seed & 0xFFFFFFFF)
            for case in cases
        ]
        batched = schedule_cases([case.dag for case in cases], configs)
        serial = [
            schedule_dag(case.dag, config)
            for case, config in zip(cases, configs)
        ]
        assert results_digest(serial) == results_digest(batched)


@needs_fork
@needs_numpy
class TestCompactResults:
    def test_aggregation_reads_compact_results(self):
        from repro.metrics.stats import aggregate_results

        point = batch_point(count=12)
        serial = aggregate_results(run_corpus(point, jobs=1))
        compact = aggregate_results(
            run_corpus(point, jobs=2, compact=True)
        )
        assert serial.per_benchmark == compact.per_benchmark
        assert serial.mean_makespan_max == compact.mean_makespan_max
        assert serial.mean_processors_used == compact.mean_processors_used
