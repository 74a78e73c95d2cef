"""Plain-text visualization of schedules and executions.

:func:`render_embedding` draws the barrier embedding of figure 9
(vertical processor streams crossed by horizontal barrier lines);
:func:`render_gantt` draws a timeline of one simulated execution; and
:func:`render_barrier_dag` pretty-prints the barrier partial order with
fire-time windows.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "render_embedding": "repro.viz.embedding",
    "render_barrier_dag": "repro.viz.embedding",
    "render_gantt": "repro.viz.gantt",
    "barrier_dag_to_dot": "repro.viz.dot",
    "cfg_to_dot": "repro.viz.dot",
    "instruction_dag_to_dot": "repro.viz.dot",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
