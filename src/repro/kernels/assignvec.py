"""Vectorized step-[2] earliest-start placement (paper section 4.3).

``ListPolicy._step2`` estimates, for every processor, the worst-case
start time of the node being placed: the processor's own completion
upper bound joined with the finish times of the node's cross-processor
producers.  The python path (:func:`repro.core.assignment.step2_classes`)
scores the active processors plus one class for all idle ones.  This
kernel forms the dense estimate vector over every processor from
:meth:`repro.core.schedule.Schedule.completion_hi_all` in whole-vector
ops:

* ``est = maximum(comp, overall_ready)`` where ``overall_ready`` is the
  max finish over *all* producers;
* processors hosting a producer are then overwritten with the max over
  the *other* hosts' producers only (a same-processor producer is
  ordered by the stream itself and contributes no ready constraint).

It is dispatched on the candidate count (active processors, plus one
for the idle class), so it engages only when a block really spreads
over ``THRESHOLDS["assign"]`` or more processors.
"""

from __future__ import annotations

from repro.kernels import numpy as _numpy

__all__ = ["step2_estimates"]


def step2_estimates(schedule, node):
    """``(best, ties, est)`` for the step-[2] scan: the minimum estimate,
    the ascending processor indices attaining it (matching the python
    enumerate order, so tie-break rng draws are identical), and the full
    int64 estimate vector for the serialization-slack path.
    """
    np = _numpy()
    comp = schedule.completion_hi_all()
    preds = schedule.dag.real_preds(node)
    if not preds:
        est = comp  # ready time is 0 everywhere
    else:
        finishes: dict[int, int] = {}
        overall = 0
        for g in preds:
            host = schedule.processor_of(g)
            fin = schedule.global_finish_hi(g)
            if fin > overall:
                overall = fin
            if fin > finishes.get(host, -1):
                finishes[host] = fin
        est = np.maximum(comp, overall)
        for host in finishes:
            excl = max(
                (fin for h, fin in finishes.items() if h != host), default=0
            )
            est[host] = max(int(comp[host]), excl)
    best = int(est.min())
    ties = np.flatnonzero(est == best).tolist()
    return best, ties, est
