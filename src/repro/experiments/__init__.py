"""Experiment harness: one entry point per table/figure of the paper.

Each experiment function generates its corpus (seeded, reproducible)
and schedules it through :func:`~repro.experiments.sweeps.run_corpus`,
so ``REPRO_JOBS`` reaches every corpus; it aggregates the section 3.1
fractions and returns a result object with a ``render()`` method
producing the same rows/series the paper reports.  The benchmark suite
(``benchmarks/``) wraps these functions one-to-one; ``EXPERIMENTS.md``
records paper-vs-measured values.

The experiment index (DESIGN.md section 3):

=====  ==================================================  ==========================
E1     Table 1 instruction mix / latency check             :func:`table1_instruction_mix`
E2     Figure 14 scatter (serialized vs static)            :func:`figure14_scatter`
E3     Figure 15 fractions vs #statements                  :func:`figure15_statements`
E4     Figure 16 fractions vs #variables                   :func:`figure16_variables`
E5     Figure 17 fractions vs #processors                  :func:`figure17_processors`
E6     Figure 18 VLIW vs barrier MIMD                      :func:`figure18_vliw`
E7     Section 5 overall ranges                            :func:`overall_ranges`
E8     Section 4.4.3 barrier merging                       :func:`merging_experiment`
E9     Section 5.4 round-robin ablation                    :func:`ablation_round_robin`
E10    Section 5.4 ordering ablation                       :func:`ablation_ordering`
E11    Section 5.4 lookahead ablation                      :func:`ablation_lookahead`
E12    Section 5.4 timing-variation ablation               :func:`ablation_timing_variation`
E13    Section 3 secondary effect (~28%)                   :func:`secondary_effect`
E14    Conservative vs optimal insertion                   :func:`optimal_vs_conservative`
E15    Extension: barrier hardware cost                    :func:`barrier_cost_experiment`
E16    Extension: control-flow scheduling overhead         :func:`flow_overhead_experiment`
E17    Extension: real kernels vs synthetic                :func:`kernel_suite_experiment`
E18    Extension: conventional-MIMD sync removal           :func:`sync_elimination_experiment`
E19    Extension: fault-tolerance curve (robustness)       :func:`robustness_experiment`
E20    Extension: static vs hardened vs hybrid study       :func:`hybrid_experiment`
=====  ==================================================  ==========================
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentPoint": "repro.experiments.sweeps",
    "run_corpus": "repro.experiments.sweeps",
    "run_point": "repro.experiments.sweeps",
    "sweep": "repro.experiments.sweeps",
    "figure14_scatter": "repro.experiments.figures",
    "figure15_statements": "repro.experiments.figures",
    "figure16_variables": "repro.experiments.figures",
    "figure17_processors": "repro.experiments.figures",
    "figure18_vliw": "repro.experiments.figures",
    "table1_instruction_mix": "repro.experiments.tables",
    "overall_ranges": "repro.experiments.tables",
    "merging_experiment": "repro.experiments.tables",
    "ablation_round_robin": "repro.experiments.tables",
    "ablation_ordering": "repro.experiments.tables",
    "ablation_lookahead": "repro.experiments.tables",
    "ablation_timing_variation": "repro.experiments.tables",
    "secondary_effect": "repro.experiments.tables",
    "optimal_vs_conservative": "repro.experiments.tables",
    "barrier_cost_experiment": "repro.experiments.tables",
    "flow_overhead_experiment": "repro.experiments.flow_exp",
    "kernel_suite_experiment": "repro.experiments.kernels_exp",
    "archive_corpus": "repro.experiments.archive",
    "load_archive": "repro.experiments.archive",
    "stats_from_archive": "repro.experiments.archive",
    "sync_elimination_experiment": "repro.experiments.syncelim_exp",
    "RobustnessResult": "repro.experiments.robustness_exp",
    "robustness_experiment": "repro.experiments.robustness_exp",
    "HybridPoint": "repro.experiments.hybrid_exp",
    "HybridResult": "repro.experiments.hybrid_exp",
    "hybrid_experiment": "repro.experiments.hybrid_exp",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
