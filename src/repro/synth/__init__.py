"""Synthetic-benchmark generation (paper section 2.2).

Random basic blocks of assignment statements with the [AlWo75]
instruction-mix frequencies of Table 1, plus a corpus driver that
compiles each block through the :mod:`repro.ir` pipeline.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GeneratorConfig": "repro.synth.generator",
    "generate_block": "repro.synth.generator",
    "BenchmarkCase": "repro.synth.corpus",
    "generate_cases": "repro.synth.corpus",
    "generate_corpus": "repro.synth.corpus",
    "FlowGeneratorConfig": "repro.synth.flowgen",
    "generate_flow_program": "repro.synth.flowgen",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
