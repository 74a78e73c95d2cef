"""Hybrid static/dynamic scheduling (see :mod:`repro.hybrid.plan`).

Compiler side: :func:`hybridize_schedule` classifies timing-proved edges
against an ε budget and demotes the fragile ones to dynamic data guards;
:func:`hybrid_program` lowers the (unchanged) schedule with the guard
table attached.  Runtime side: :class:`HybridController` executes static
barriers natively while the engine resolves guards under a
timeout/bounded-retry watchdog (:class:`~repro.machine.engine.GuardPolicy`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "EdgeDemotion": "repro.hybrid.plan",
    "HybridController": "repro.hybrid.controller",
    "HybridPlan": "repro.hybrid.plan",
    "hybrid_program": "repro.hybrid.plan",
    "hybridize_schedule": "repro.hybrid.plan",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
