"""Synchronization metrics and corpus statistics (paper section 3.1/5)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SyncFractions": "repro.metrics.fractions",
    "fractions_of": "repro.metrics.fractions",
    "CorpusStats": "repro.metrics.stats",
    "FractionAggregate": "repro.metrics.stats",
    "aggregate_fractions": "repro.metrics.stats",
    "aggregate_results": "repro.metrics.stats",
    "CaseRobustness": "repro.metrics.robustness",
    "RobustnessPoint": "repro.metrics.robustness",
    "aggregate_robustness": "repro.metrics.robustness",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
