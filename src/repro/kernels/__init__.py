"""Vectorized (numpy) backends behind three pure-python routines.

Three routines have a numpy kernel sitting *behind* the canonical
pure-python implementation: the per-PE earliest-start scan of list
scheduling (``assign``: :mod:`repro.core.assignment`, kernel
:mod:`repro.kernels.assignvec`), the corpus generator (``genvec``:
:mod:`repro.synth.genvec`) and the chunk-batched scheduler (``batch``:
:mod:`repro.core.batchrun`, kernels :mod:`repro.kernels.batch`).  The
python code stays the specification; a kernel is only ever an
accelerator that must produce bit-identical results.

Reachability, the longest-path relaxations, the dominator tree and the
merge scans have no kernel: they run on one block's barrier dag, which
stays far below the size where array setup pays for itself, so python
is their only implementation.

Selection follows only what the program can observe: a call engages its
kernel when numpy imports and the call's size reaches the kernel's
threshold (:data:`THRESHOLDS`); below it the python loop is faster than
the array setup it would replace.  Results never depend on the choice,
so there is no user-set backend; a machine without numpy runs every
routine in pure python.

Check mode (``REPRO_CHECK=1``, read by :func:`checking`): every kernel
call *also* runs the python implementation and asserts bit-identical
results, and every :class:`~repro.core.schedule.Schedule` mutation
verifies its incremental views against a scratch rebuild.  Check mode
overrides the thresholds (otherwise small corpora would verify
nothing); kernel outcomes are counted as ``kernels.check.checked`` /
``kernels.check.mismatches``.

Every dispatch decision is counted -- module-locally (always, see
:func:`kernels_info`) and on the active metrics registry
(``kernels.calls.<kernel>.<backend>``) so the path each kernel took is
visible in traces, ``repro-sbm explain --json``, and perf reports.

numpy itself is imported lazily: a pure-python run (or a machine
without numpy) never pays the import.
"""

from __future__ import annotations

import os
from typing import Any, ContextManager

from repro.obs import metrics as obs_metrics
from repro.obs import prof as obs_prof

__all__ = [
    "THRESHOLDS",
    "checking",
    "have_numpy",
    "kernels_info",
    "numpy",
    "reset_calls",
    "resolved_backend",
    "timed",
    "use_numpy",
    "verify",
]

#: A kernel engages when its size measure reaches the threshold.
#: ``assign`` is sized by step-[2] candidates (active PEs plus one idle
#: class), so narrow machines stay pure python.
THRESHOLDS: dict[str, int] = {
    "assign": 64,
    # Batched corpus kernels: sizes are *cases per batch*, not nodes.
    # The vectorized generator wins from ~8 cases up (the flat-gather
    # RNG keeps per-call dispatch low), which covers the perf report's
    # 10-case simulation corpus.
    "genvec": 8,
    "batch": 16,
}

_np: Any = None
_np_checked = False

#: Dispatch tally, ``kernels.calls.<kernel>.<backend> -> n``.  Module
#: level (not registry-scoped) so ``explain``/reports can show backend
#: drift even when no registry is active.
_CALLS: dict[str, int] = {}


def numpy() -> Any:
    """The numpy module, or ``None`` when it cannot be imported."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy as np  # local: keep pure-python runs import-free

            _np = np
        except Exception:  # pragma: no cover - container always has numpy
            _np = None
    return _np


def have_numpy() -> bool:
    return numpy() is not None


def checking() -> bool:
    """True when ``REPRO_CHECK`` asks for the cross-checks: every kernel
    call against python, every schedule mutation against a scratch
    rebuild.  Read at each call, so a test can set it per run."""
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def resolved_backend() -> str:
    """The path kernels can take here: ``numpy`` when it imports."""
    return "numpy" if have_numpy() else "python"


def use_numpy(kernel: str, size: int) -> bool:
    """Decide the backend for one kernel call of the given size."""
    # Size test first so small pure-python runs never import numpy;
    # check mode overrides it (small corpora would verify nothing).
    return (checking() or size >= THRESHOLDS[kernel]) and have_numpy()


def timed(kernel: str, backend: str) -> ContextManager[None]:
    """Count one dispatch decision and time the block it guards.

    ``with kernels.timed("assign", "numpy"): ...`` bumps the module
    tally and, when a metrics registry is active, the counter
    ``kernels.calls.<kernel>.<backend>`` and the wall/CPU histograms
    :mod:`repro.obs.prof` reports as the kernel ``<kernel>.<backend>``.
    Without a registry the returned context manager is a shared no-op,
    so the hot paths pay one context-variable lookup.
    """
    calls = f"kernels.calls.{kernel}.{backend}"
    _CALLS[calls] = _CALLS.get(calls, 0) + 1
    reg = obs_metrics.current_registry()
    if reg is None:
        return obs_prof.UNTIMED
    reg.inc(calls)
    return obs_prof.Timer(reg, f"{obs_prof.KERNEL}{kernel}.{backend}")


def verify(kernel: str, got: Any, expected: Any) -> None:
    """Cross-check a kernel result against the python implementation.

    Counts ``kernels.check.checked`` per comparison and raises
    ``AssertionError`` (after counting ``kernels.check.mismatches``) on
    any divergence -- same contract as the incremental-view checker.
    """
    reg = obs_metrics.current_registry()
    if reg is not None:
        reg.inc("kernels.check.checked")
    if got != expected:
        if reg is not None:
            reg.inc("kernels.check.mismatches")
        raise AssertionError(
            f"kernel cross-check failed for {kernel!r}: the fast path "
            f"diverged from its python reference"
        )


def reset_calls() -> None:
    """Clear the module-level dispatch tally (test isolation)."""
    _CALLS.clear()


def kernels_info() -> dict:
    """Backend status for reports: resolution, thresholds, call tallies."""
    return {
        "resolved": resolved_backend(),
        "checking": checking(),
        "thresholds": dict(THRESHOLDS),
        "calls": dict(_CALLS),
    }
