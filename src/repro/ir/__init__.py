"""Compiler substrate: mini language, tuple IR, optimizer, instruction DAG.

This package implements the front half of the paper's toolchain
(section 2): a tiny straight-line language of assignment statements is
parsed (:mod:`repro.ir.parser`), lowered to numbered three-address tuples
(:mod:`repro.ir.codegen`), cleaned up by standard local optimizations
(:mod:`repro.ir.optimizer`), and finally turned into the weighted
instruction DAG (:mod:`repro.ir.dag`) consumed by the scheduler in
:mod:`repro.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.ir.ops import DEFAULT_TIMING, TimingModel

if TYPE_CHECKING:
    from repro.ir.ast import BasicBlock
    from repro.ir.dag import InstructionDAG

_EXPORTS = {
    "ALU_OPCODES": "repro.ir.ops",
    "OP_FREQUENCIES": "repro.ir.ops",
    "Opcode": "repro.ir.ops",
    "Assign": "repro.ir.ast",
    "BasicBlock": "repro.ir.ast",
    "BinOp": "repro.ir.ast",
    "Const": "repro.ir.ast",
    "Expr": "repro.ir.ast",
    "Var": "repro.ir.ast",
    "apply_op": "repro.ir.ast",
    "ParseError": "repro.ir.parser",
    "parse_block": "repro.ir.parser",
    "parse_expr": "repro.ir.parser",
    "Imm": "repro.ir.tuples",
    "IRTuple": "repro.ir.tuples",
    "Operand": "repro.ir.tuples",
    "Ref": "repro.ir.tuples",
    "TupleProgram": "repro.ir.tuples",
    "generate_tuples": "repro.ir.codegen",
    "optimize": "repro.ir.optimizer",
    "interpret": "repro.ir.interp",
    "ENTRY": "repro.ir.dag",
    "EXIT": "repro.ir.dag",
    "CycleError": "repro.ir.dag",
    "InstructionDAG": "repro.ir.dag",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(
    [*_EXPORTS, "DEFAULT_TIMING", "TimingModel", "compile_block", "compile_source"]
)


def compile_block(
    block: BasicBlock,
    timing: TimingModel = DEFAULT_TIMING,
    run_optimizer: bool = True,
) -> InstructionDAG:
    """One-call front end: AST block -> optimized tuples -> instruction DAG."""
    from repro.ir.codegen import generate_tuples
    from repro.ir.dag import InstructionDAG
    from repro.ir.optimizer import optimize

    program = generate_tuples(block)
    if run_optimizer:
        program = optimize(program)
    return InstructionDAG.from_program(program, timing)


def compile_source(
    source: str,
    timing: TimingModel = DEFAULT_TIMING,
    run_optimizer: bool = True,
) -> InstructionDAG:
    """Compile mini-language source text straight to an instruction DAG."""
    from repro.ir.parser import parse_block

    return compile_block(parse_block(source), timing, run_optimizer)
