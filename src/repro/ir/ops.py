"""The benchmark instruction set of Table 1.

Nine opcodes, four of which (:data:`Opcode.LOAD`, :data:`Opcode.MUL`,
:data:`Opcode.DIV`, :data:`Opcode.MOD`) have *variable* execution time.
The default latencies and the ALU-operation selection frequencies come
straight from Table 1 of the paper (which in turn follows the XPL
instruction-mix study of Alexander & Wortman, 1975).

A :class:`TimingModel` maps opcodes to :class:`~repro.timing.Interval`
latencies and is a first-class parameter of the whole pipeline, because
section 5 of the paper varies "the timing assigned to each instruction"
as an architecture parameter (the timing-variation ablation, experiment
E12 in DESIGN.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.timing import Interval

__all__ = [
    "Opcode",
    "ALU_OPCODES",
    "VARIABLE_TIME_OPCODES",
    "OP_FREQUENCIES",
    "OP_SYMBOLS",
    "SYMBOL_OPS",
    "COMMUTATIVE_OPCODES",
    "TimingModel",
    "DEFAULT_TIMING",
]


class Opcode(enum.Enum):
    """The nine instructions of the synthetic-benchmark instruction set."""

    LOAD = "Load"
    STORE = "Store"
    ADD = "Add"
    SUB = "Sub"
    AND = "And"
    OR = "Or"
    MUL = "Mul"
    DIV = "Div"
    MOD = "Mod"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_alu(self) -> bool:
        """True for the seven register-to-register arithmetic/logic ops."""
        return self not in (Opcode.LOAD, Opcode.STORE)

    @property
    def is_memory(self) -> bool:
        return self in (Opcode.LOAD, Opcode.STORE)


#: ALU opcodes that may appear on the right-hand side of a generated
#: assignment statement, in Table 1 order.
ALU_OPCODES: tuple[Opcode, ...] = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.MOD,
)

#: Execution frequencies of Table 1 (percent).  Load/Store have no entry:
#: they are generated on demand by the code generator (first read of a
#: variable -> Load; assignment -> Store).
OP_FREQUENCIES: Mapping[Opcode, float] = {
    Opcode.ADD: 45.8,
    Opcode.SUB: 33.9,
    Opcode.AND: 8.8,
    Opcode.OR: 5.2,
    Opcode.MUL: 2.9,
    Opcode.DIV: 2.2,
    Opcode.MOD: 1.2,
}

#: Concrete-syntax operator symbols for the mini language.
OP_SYMBOLS: Mapping[Opcode, str] = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.MUL: "*",
    Opcode.DIV: "/",
    Opcode.MOD: "%",
}

#: Inverse of :data:`OP_SYMBOLS`, used by the parser.
SYMBOL_OPS: Mapping[str, Opcode] = {sym: op for op, sym in OP_SYMBOLS.items()}

#: Opcodes whose operand order is semantically irrelevant.  CSE normalizes
#: operand order for these so that ``a+b`` and ``b+a`` share one tuple.
COMMUTATIVE_OPCODES = frozenset({Opcode.ADD, Opcode.AND, Opcode.OR, Opcode.MUL})

#: Table 1 latency intervals (time units).
_TABLE_1: Mapping[Opcode, Interval] = {
    Opcode.LOAD: Interval(1, 4),
    Opcode.STORE: Interval(1, 1),
    Opcode.ADD: Interval(1, 1),
    Opcode.SUB: Interval(1, 1),
    Opcode.AND: Interval(1, 1),
    Opcode.OR: Interval(1, 1),
    Opcode.MUL: Interval(16, 24),
    Opcode.DIV: Interval(24, 32),
    Opcode.MOD: Interval(24, 32),
}

#: Opcodes with ``min != max`` under the default (Table 1) timing model.
VARIABLE_TIME_OPCODES = frozenset(
    op for op, iv in _TABLE_1.items() if not iv.is_point
)


@dataclass(frozen=True, slots=True)
class TimingModel:
    """Maps every opcode to its ``[min, max]`` latency interval.

    The model is immutable; derive variants with :meth:`scaled` (widen all
    variable-time latencies, experiment E12) or :meth:`override`.
    """

    latencies: Mapping[Opcode, Interval] = field(default_factory=lambda: dict(_TABLE_1))
    name: str = "table1"

    def __post_init__(self) -> None:
        missing = [op for op in Opcode if op not in self.latencies]
        if missing:
            raise ValueError(f"timing model {self.name!r} missing opcodes: {missing}")

    def __getitem__(self, op: Opcode) -> Interval:
        return self.latencies[op]

    def min_time(self, op: Opcode) -> int:
        return self.latencies[op].lo

    def max_time(self, op: Opcode) -> int:
        return self.latencies[op].hi

    def variable_opcodes(self) -> frozenset[Opcode]:
        """Opcodes with non-degenerate latency under *this* model."""
        return frozenset(op for op, iv in self.latencies.items() if not iv.is_point)

    def scaled(self, factor: float, name: str | None = None) -> "TimingModel":
        """A model whose timing *variation* is multiplied by ``factor``.

        Minimum latencies are preserved; only ``max - min`` scales.  Used by
        the section 5.4 experiment showing the barrier fraction is fairly
        insensitive to instruction timing variation.
        """
        return TimingModel(
            {op: iv.scale(factor) for op, iv in self.latencies.items()},
            name=name or f"{self.name}*{factor:g}",
        )

    def override(self, name: str | None = None, **changes: Interval) -> "TimingModel":
        """A model with some opcode latencies replaced.

        Keys are lowercase opcode names, e.g.
        ``DEFAULT_TIMING.override(load=Interval(1, 8))``.
        """
        table = dict(self.latencies)
        for key, iv in changes.items():
            table[Opcode[key.upper()]] = iv
        return TimingModel(table, name=name or f"{self.name}+override")

    def fixed_at_max(self, name: str | None = None) -> "TimingModel":
        """Collapse every latency to its maximum (the VLIW model, section 6).

        The paper's VLIW comparison assumes "all instructions required their
        maximum time to execute" because a lock-step machine must always
        budget for the worst case.
        """
        return TimingModel(
            {op: Interval.point(iv.hi) for op, iv in self.latencies.items()},
            name=name or f"{self.name}@max",
        )


#: The Table 1 timing model used throughout the paper's experiments.
DEFAULT_TIMING = TimingModel()
