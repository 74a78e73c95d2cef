"""Schedule quality analysis and reporting."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BarrierStats": "repro.analysis.report",
    "UtilizationStats": "repro.analysis.report",
    "ScheduleReport": "repro.analysis.report",
    "analyze_schedule": "repro.analysis.report",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
