"""FAST: Fully-Associative Sector Translation (log-block FTL baseline).

FAST shares its log blocks among *all* logical blocks: one sequential (SW)
log block absorbs in-order streams, and a set of random-write (RW) log
blocks absorb everything else, appended log-structured.  Space is reclaimed
by merging the *oldest* RW log block: every logical block with a valid page
in the victim must be fully merged, so one reclamation can cost
``distinct_lbns x pages_per_block`` copies - the long merge stalls that
motivate merge-free designs like LazyFTL.

Reference: Lee et al., "A log buffer-based flash translation layer using
fully-associative sector translation" (2007).
"""

from __future__ import annotations

from typing import Any, List

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from .logblock import LogBufferFTL


class FastFTL(LogBufferFTL):
    """Fully-Associative Sector Translation: the shared log buffer with one
    sequential (SW) log block and one random-write (RW) partition.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        num_rw_log_blocks: Random-write log-block pool size.
    """

    name = "FAST"
    num_seq_log_blocks = 1
    seq_merge_kind = "sw"
    victim_merge_kind = "rw"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_rw_log_blocks: int = 8,
    ):
        if num_rw_log_blocks < 1:
            raise ValueError("num_rw_log_blocks must be >= 1")
        super().__init__(flash, logical_pages, num_rw_log_blocks)
        self.num_rw_log_blocks = num_rw_log_blocks
        self._rw_blocks: List[int] = []   # allocation (age) order

    def _write_random(self, lpn: int, data: Any) -> float:
        return self._append_random(
            self._rw_blocks, self.num_rw_log_blocks, lpn, data)

    def ram_bytes(self) -> int:
        """Block map + fully-associative RW page map (8 bytes per entry)."""
        return (
            self.num_lbns * MAP_ENTRY_BYTES
            + self._rw_map.mapped_count() * 2 * MAP_ENTRY_BYTES
            + (self.num_rw_log_blocks + 1) * MAP_ENTRY_BYTES
        )
