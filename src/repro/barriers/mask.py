"""Barrier bit masks (paper section 3.2, figure 11).

"Each barrier is represented by a bit mask indicating which processors
participate in that barrier; these bit masks are enqueued into a FIFO
queue in the sequence in which they will be executed. ... When the set of
processors waiting for a barrier becomes a subset of the waiting
processors in the top barrier mask, the top barrier executes and is
removed from the queue."

:class:`BarrierMask` is the word-level model of that hardware: an
``n_pes``-bit mask with the subset test the SBM queue controller
performs.  The simulators in :mod:`repro.machine` operate on these masks
rather than on scheduler objects, keeping the "hardware" layer faithful
to the paper's description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["BarrierMask"]


@dataclass(frozen=True, slots=True)
class BarrierMask:
    """An immutable bit mask over ``n_pes`` processors."""

    bits: int
    n_pes: int

    def __post_init__(self) -> None:
        if self.n_pes < 1:
            raise ValueError("n_pes must be >= 1")
        if self.bits < 0 or self.bits >= (1 << self.n_pes):
            raise ValueError(f"mask {self.bits:#x} out of range for {self.n_pes} PEs")

    @staticmethod
    def from_pes(pes: Iterable[int], n_pes: int) -> "BarrierMask":
        bits = 0
        for pe in pes:
            if not 0 <= pe < n_pes:
                raise ValueError(f"PE index {pe} out of range [0, {n_pes})")
            bits |= 1 << pe
        return BarrierMask(bits, n_pes)

    @staticmethod
    def empty(n_pes: int) -> "BarrierMask":
        return BarrierMask(0, n_pes)

    @staticmethod
    def full(n_pes: int) -> "BarrierMask":
        return BarrierMask((1 << n_pes) - 1, n_pes)

    # -- the hardware operations -------------------------------------------

    def is_subset_of(self, other: "BarrierMask") -> bool:
        """The firing test: all of our processors are within ``other``."""
        return (self.bits & ~other.bits) == 0

    def covers(self, other: "BarrierMask") -> bool:
        return other.is_subset_of(self)

    def with_wait(self, pe: int) -> "BarrierMask":
        """A new mask with ``pe``'s WAIT line asserted."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE index {pe} out of range")
        return BarrierMask(self.bits | (1 << pe), self.n_pes)

    def release(self, fired: "BarrierMask") -> "BarrierMask":
        """Clear the WAIT lines of the processors released by ``fired``."""
        return BarrierMask(self.bits & ~fired.bits, self.n_pes)

    # -- conveniences ---------------------------------------------------------

    def __contains__(self, pe: int) -> bool:
        return 0 <= pe < self.n_pes and bool(self.bits >> pe & 1)

    def __iter__(self) -> Iterator[int]:
        # Set-bit iteration: O(popcount), not O(n_pes); most barriers of
        # a 1024-PE machine are narrow.
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.n_pes) - 1

    def participants(self) -> Sequence[int]:
        """The set PEs in ascending order: ``range(n_pes)`` for a full mask
        (the machine-start barrier), so no per-PE objects are built."""
        return range(self.n_pes) if self.is_full else tuple(self)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n_pes}b")[::-1]  # PE0 leftmost
