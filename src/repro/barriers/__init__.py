"""Barrier synchronization substrate (paper sections 3.1 and 4.4).

The *barrier dag* ``(B, <_b)`` is the partially ordered set of barriers in
a schedule; its edges carry the ``[min,max]`` execution time of the code
regions between consecutive barriers.  All of the paper's static-timing
machinery -- dominator trees, longest min/max paths from a common
dominating barrier, and the k-longest-path overlap analysis of the
"optimal" insertion algorithm -- lives here.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Barrier": "repro.barriers.model",
    "BarrierDag": "repro.barriers.dag",
    "BarrierEdge": "repro.barriers.dag",
    "DominatorTree": "repro.barriers.dominators",
    "BarrierMask": "repro.barriers.mask",
    "PathExplosionError": "repro.barriers.paths",
    "all_paths": "repro.barriers.paths",
    "k_longest_max_paths": "repro.barriers.paths",
    "longest_min_path_with_forced_max": "repro.barriers.paths",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
