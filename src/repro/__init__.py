"""repro: Static Scheduling for Barrier MIMD Architectures (1990), rebuilt.

A complete, tested reimplementation of Zaafrani, Dietz & O'Keefe,
"Static Scheduling for Barrier MIMD Architectures" (Purdue TR-EE 90-10 /
ICPP 1990): the synthetic-benchmark compiler front end, the list
scheduler with conservative and "optimal" barrier insertion and SBM
barrier merging, cycle-accurate SBM/DBM/VLIW/conventional-MIMD execution
models, and the paper's full evaluation harness.

Quickstart::

    from repro import (GeneratorConfig, SchedulerConfig, compile_source,
                       generate_block, schedule_dag, fractions_of)

    block = generate_block(GeneratorConfig(n_statements=30, n_variables=8), 42)
    dag = compile_source(block.source())
    result = schedule_dag(dag, SchedulerConfig(n_pes=8))
    print(result.describe())
    print(fractions_of(result).render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

The names below, and every subpackage's, load on first access
(:mod:`repro._lazy`): ``import repro`` imports no submodule, and a run
loads only the modules it uses.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Interval": "repro.timing",
    "ZERO": "repro.timing",
    "BasicBlock": "repro.ir.ast",
    "DEFAULT_TIMING": "repro.ir.ops",
    "InstructionDAG": "repro.ir.dag",
    "Opcode": "repro.ir.ops",
    "TimingModel": "repro.ir.ops",
    "TupleProgram": "repro.ir.tuples",
    "compile_block": "repro.ir",
    "compile_source": "repro.ir",
    "generate_tuples": "repro.ir.codegen",
    "interpret": "repro.ir.interp",
    "optimize": "repro.ir.optimizer",
    "parse_block": "repro.ir.parser",
    "BenchmarkCase": "repro.synth.corpus",
    "GeneratorConfig": "repro.synth.generator",
    "generate_block": "repro.synth.generator",
    "generate_corpus": "repro.synth.corpus",
    "Schedule": "repro.core.schedule",
    "ScheduleResult": "repro.core.scheduler",
    "SchedulerConfig": "repro.core.scheduler",
    "SyncCounts": "repro.core.scheduler",
    "schedule_dag": "repro.core.scheduler",
    "Barrier": "repro.barriers.model",
    "BarrierDag": "repro.barriers.dag",
    "BarrierMask": "repro.barriers.mask",
    "DominatorTree": "repro.barriers.dominators",
    "ExecutionTrace": "repro.machine.trace",
    "MachineProgram": "repro.machine.program",
    "UniformSampler": "repro.machine.durations",
    "VLIWSchedule": "repro.machine.vliw",
    "simulate_conventional_mimd": "repro.machine.mimd",
    "simulate_dbm": "repro.machine.dbm",
    "simulate_sbm": "repro.machine.sbm",
    "vliw_schedule": "repro.machine.vliw",
    "SyncFractions": "repro.metrics.fractions",
    "aggregate_results": "repro.metrics.stats",
    "fractions_of": "repro.metrics.fractions",
    "analyze_schedule": "repro.analysis.report",
    "load_program": "repro.io",
    "program_from_json": "repro.io",
    "program_to_json": "repro.io",
    "save_program": "repro.io",
    "render_barrier_dag": "repro.viz.embedding",
    "render_embedding": "repro.viz.embedding",
    "render_gantt": "repro.viz.gantt",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])
