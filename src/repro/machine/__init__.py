"""Machine-level execution models (paper sections 3.2 and 6).

The scheduler's output is lowered to a :class:`~repro.machine.program.MachineProgram`
-- per-processor op streams plus barrier bit masks -- and executed by:

* :mod:`repro.machine.sbm` -- the Static Barrier MIMD: a FIFO queue of
  barrier masks; only the queue head may fire (figure 11);
* :mod:`repro.machine.dbm` -- the Dynamic Barrier MIMD: associative
  matching lets any barrier whose participants are all waiting fire;
* :mod:`repro.machine.vliw` -- the lock-step VLIW comparison model of
  section 6 (all instructions at maximum time, no asynchrony);
* :mod:`repro.machine.mimd` -- a conventional MIMD with directed
  producer/consumer synchronization, the "what would have happened
  without barrier scheduling" baseline.

Instruction durations are drawn by pluggable samplers
(:mod:`repro.machine.durations`); executing a schedule under thousands of
random draws and asserting every producer finishes before its consumers
start is the system-level soundness oracle used by the test suite.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BimodalSampler": "repro.machine.durations",
    "DurationSampler": "repro.machine.durations",
    "FixedSampler": "repro.machine.durations",
    "MaxSampler": "repro.machine.durations",
    "MinSampler": "repro.machine.durations",
    "UniformSampler": "repro.machine.durations",
    "BarrierRef": "repro.machine.program",
    "MachineOp": "repro.machine.program",
    "MachineProgram": "repro.machine.program",
    "DeadlockError": "repro.machine.trace",
    "ExecutionTrace": "repro.machine.trace",
    "OrderViolation": "repro.machine.trace",
    "simulate_sbm": "repro.machine.sbm",
    "simulate_dbm": "repro.machine.dbm",
    "VLIWSchedule": "repro.machine.vliw",
    "vliw_schedule": "repro.machine.vliw",
    "ConventionalMIMDResult": "repro.machine.mimd",
    "simulate_conventional_mimd": "repro.machine.mimd",
    "ClockedDBM": "repro.machine.rtl",
    "ClockedSBM": "repro.machine.rtl",
    "run_clocked": "repro.machine.rtl",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
