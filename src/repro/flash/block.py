"""Read-only view of one NAND erase block.

All device state lives in flat arrays owned by
:class:`~repro.flash.chip.NandFlash` (page states / data / OOB indexed by
ppn, counters indexed by pbn); a :class:`Block` is a window onto one
block's slice of them for code that thinks block-at-a-time (log-block
schemes, the checkpoint scribe, auditors, tests).  It holds no state of
its own and has no mutators: programs, invalidations and erases go through
the device's raw operations, which is the only place the NAND rules
(erase-before-write, sequential programming) are implemented.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .oob import OOBData
from .page import FREE, VALID

if TYPE_CHECKING:  # pragma: no cover
    from .chip import NandFlash


class Block:
    """Window onto block ``index`` of ``flash``'s state arrays."""

    __slots__ = ("_flash", "index", "_base", "pages_per_block")

    def __init__(self, flash: "NandFlash", index: int):
        self._flash = flash
        self.index = index
        self.pages_per_block = flash.geometry.pages_per_block
        self._base = index * self.pages_per_block

    @property
    def write_ptr(self) -> int:
        """Offset of the next free page (== pages programmed since erase)."""
        return self._flash.write_ptr[self.index]

    @property
    def valid_count(self) -> int:
        """Number of VALID pages currently in the block."""
        return self._flash.valid_count[self.index]

    @property
    def invalid_count(self) -> int:
        """Number of INVALID (stale) pages currently in the block."""
        flash = self._flash
        return flash.write_ptr[self.index] - flash.valid_count[self.index]

    @property
    def free_count(self) -> int:
        """Number of still-programmable pages."""
        return self.pages_per_block - self._flash.write_ptr[self.index]

    @property
    def is_full(self) -> bool:
        """True when every page has been programmed since the last erase."""
        return self._flash.write_ptr[self.index] >= self.pages_per_block

    @property
    def is_empty(self) -> bool:
        """True when the block is fully erased."""
        return self._flash.write_ptr[self.index] == 0

    @property
    def erase_count(self) -> int:
        """How many times this block has been erased (wear)."""
        return self._flash.erase_count[self.index]

    @property
    def is_bad(self) -> bool:
        """True once the block is retired (wear-out or factory mark)."""
        return bool(self._flash.is_bad[self.index])

    def is_free(self, offset: int) -> bool:
        """True when the page at ``offset`` is erased and programmable."""
        return self._flash.page_states[self._ppn(offset)] == FREE

    def is_valid(self, offset: int) -> bool:
        """True when the page at ``offset`` holds a live copy."""
        return self._flash.page_states[self._ppn(offset)] == VALID

    def oob(self, offset: int) -> Optional[OOBData]:
        """Spare-area metadata of the page at ``offset`` (uncharged peek)."""
        return self._flash.page_oob[self._ppn(offset)]

    def valid_offsets(self) -> Iterator[int]:
        """Yield the offsets of all VALID pages, ascending."""
        base = self._base
        return (ppn - base for ppn in self._flash.valid_ppns(self.index))

    def programmed_offsets(self) -> Iterator[int]:
        """Yield offsets of all programmed (valid or invalid) pages."""
        return iter(range(self._flash.write_ptr[self.index]))

    def _ppn(self, offset: int) -> int:
        if not 0 <= offset < self.pages_per_block:
            raise IndexError(f"page offset {offset} outside block")
        return self._base + offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block({self.index}, valid={self.valid_count}, "
            f"wp={self.write_ptr}/{self.pages_per_block}, "
            f"erases={self.erase_count})"
        )
