"""Barrier masks at 1024-PE machine widths.

The machine controllers test a barrier's readiness with a flat check
over its participants (:meth:`BarrierMask.participants`, cached per
program).  These tests pin set-bit iteration and the participant
sequence across 64-bit word boundaries, plus the end-to-end property:
1024-PE configurations schedule and simulate soundly.  Their results
digests are pinned on both kernel paths in
``tests/core/test_wide_digests.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.barriers.mask import BarrierMask
from repro.core.scheduler import SchedulerConfig, schedule_dag
from repro.machine.program import MachineProgram
from repro.machine.sbm import simulate_sbm

from tests.conftest import make_case


class TestMaskIteration:
    @pytest.mark.parametrize("n_pes", [1, 63, 64, 65, 128, 1024])
    def test_iter_yields_exactly_the_set_bits(self, n_pes):
        rng = random.Random(n_pes)
        for _ in range(20):
            bits = rng.getrandbits(n_pes)
            mask = BarrierMask(bits, n_pes)
            expected = [pe for pe in range(n_pes) if (bits >> pe) & 1]
            assert list(mask) == expected
            assert len(mask) == len(expected)

    def test_empty_and_full(self):
        assert list(BarrierMask.empty(1024)) == []
        assert list(BarrierMask.full(70)) == list(range(70))

    @pytest.mark.parametrize("n_pes", [1, 64, 130, 1024])
    def test_participants_match_iteration(self, n_pes):
        rng = random.Random(n_pes)
        full = BarrierMask.full(n_pes)
        assert full.is_full
        assert full.participants() == range(n_pes)
        for _ in range(10):
            mask = BarrierMask(rng.getrandbits(n_pes), n_pes)
            assert tuple(mask.participants()) == tuple(mask)
            assert mask.is_full == (len(mask) == n_pes)


class TestScale1024:
    """End to end: 1024-PE configs schedule and simulate."""

    def test_schedule_and_simulate_round_trip(self):
        case = make_case(n_statements=60, seed=5)
        result = schedule_dag(case.dag, SchedulerConfig(n_pes=1024))
        assert result.schedule.n_pes == 1024
        program = MachineProgram.from_schedule(result.schedule)
        trace = simulate_sbm(program, rng=0)
        trace.assert_sound(program.edges)
