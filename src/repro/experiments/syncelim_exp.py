"""E18 (extension): removing conventional-MIMD synchronizations by timing.

The paper's section 7 proposes applying its timing machinery "to remove
some synchronizations in conventional MIMD architectures".  This
experiment quantifies the idea on the synthetic corpus, comparing four
regimes on the *same* processor assignment:

* **naive** -- one directed sync per cross-processor edge (figure 3);
* **structural** -- Shaffer/Callahan transitive reduction (graph shape
  only, the strongest prior technique the paper cites);
* **timing** -- this repo's interval-based elimination
  (:mod:`repro.core.sync_elimination`);
* **structural + timing** -- elimination started from the reduced set;
* and, for context, the **barrier MIMD**'s barrier count for the same
  blocks (the paper's own architecture).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scheduler import SchedulerConfig
from repro.core.sync_elimination import eliminate_directed_syncs
from repro.experiments.render import table
from repro.experiments.sweeps import ExperimentPoint, run_corpus
from repro.machine.mimd import directed_sync_counts, _combined_task_graph
from repro.synth.generator import GeneratorConfig

__all__ = ["SyncEliminationStats", "sync_elimination_experiment"]


@dataclass(frozen=True)
class SyncEliminationStats:
    n_benchmarks: int
    mean_naive: float
    mean_structural: float
    mean_timing: float
    mean_combined: float
    mean_barriers: float

    def render(self) -> str:
        def row(label, value):
            removed = 1.0 - value / self.mean_naive if self.mean_naive else 0.0
            return [label, f"{value:.2f}", f"{removed:.0%}"]

        rows = [
            row("naive directed syncs", self.mean_naive),
            row("after transitive reduction", self.mean_structural),
            row("after timing elimination", self.mean_timing),
            row("after both", self.mean_combined),
            row("barrier MIMD barriers (context)", self.mean_barriers),
        ]
        return (
            "Conventional-MIMD synchronization removal "
            f"(extension; n={self.n_benchmarks}, 60 stmts, 10 vars, 8 PEs)\n"
            + table(["regime", "runtime syncs/block", "vs naive"], rows)
            + "\npaper section 7: 'the possible application of the barrier"
            + "\nscheduling techniques to remove some synchronizations in"
            + "\nconventional MIMD architectures' -- quantified here."
        )


def sync_elimination_experiment(
    count: int = 40,
    master_seed: int = 23,
    n_pes: int = 8,
    n_statements: int = 60,
    n_variables: int = 10,
) -> SyncEliminationStats:
    """Run the four regimes over one corpus."""
    import networkx as nx

    point = ExperimentPoint(
        generator=GeneratorConfig(
            n_statements=n_statements, n_variables=n_variables
        ),
        scheduler=SchedulerConfig(n_pes=n_pes),
        count=count,
        master_seed=master_seed,
    )
    naive, structural, timing, combined, barriers = [], [], [], [], []
    for result in run_corpus(point):
        schedule = result.schedule
        dag = schedule.dag
        n_naive, n_reduced = directed_sync_counts(dag, schedule)
        elim = eliminate_directed_syncs(schedule)

        reduced_graph = nx.transitive_reduction(
            _combined_task_graph(dag, schedule)
        )
        reduced_set = {
            (g, i)
            for g, i in dag.real_edges()
            if schedule.processor_of(g) != schedule.processor_of(i)
            and reduced_graph.has_edge(g, i)
        }
        both = eliminate_directed_syncs(schedule, start_from=reduced_set)

        naive.append(n_naive)
        structural.append(n_reduced)
        timing.append(elim.n_retained)
        combined.append(both.n_retained)
        barriers.append(result.counts.barriers_final)

    return SyncEliminationStats(
        n_benchmarks=count,
        mean_naive=float(np.mean(naive)),
        mean_structural=float(np.mean(structural)),
        mean_timing=float(np.mean(timing)),
        mean_combined=float(np.mean(combined)),
        mean_barriers=float(np.mean(barriers)),
    )
