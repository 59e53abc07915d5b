"""LAST: Locality-Aware Sector Translation (extra log-block baseline).

LAST refines FAST by partitioning the log buffer by locality: sequential
streams get per-logical-block sequential log blocks (switch/partial merges,
like BAST), while random updates go to a random log partition that is
*split into hot and cold regions*.  Hot pages - recently updated ones -
cluster together, so hot log blocks tend to die completely (every page
superseded) and can be reclaimed with a free erase instead of a full
merge.  That "dead block reclamation" is LAST's key advantage over FAST;
under purely uniform traffic it degenerates to FAST-like behaviour.

Reference: Lee, Shin, Kim, Kim, "LAST: locality-aware sector translation
for NAND flash memory-based storage systems" (SIGOPS OSR 2008).  The
LazyFTL paper discusses LAST among the log-block schemes whose merge
overhead it eliminates; this implementation is provided as an additional
baseline beyond the paper's evaluated four.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from .base import HostResult
from .logblock import LogBufferFTL


class LastFTL(LogBufferFTL):
    """Locality-Aware Sector Translation: the shared log buffer with a
    sequential partition, a hot and a cold random partition, and dead-block
    reclamation.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        num_seq_log_blocks: Sequential-partition size (per-lbn associative).
        num_hot_blocks: Hot random-log partition size.
        num_cold_blocks: Cold random-log partition size.
        hot_window: How many recently-updated lpns count as hot.
    """

    name = "LAST"
    seq_merge_kind = "seq"
    victim_merge_kind = "random"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_seq_log_blocks: int = 4,
        num_hot_blocks: int = 4,
        num_cold_blocks: int = 4,
        hot_window: int = 512,
    ):
        for name, value in (
            ("num_seq_log_blocks", num_seq_log_blocks),
            ("num_hot_blocks", num_hot_blocks),
            ("num_cold_blocks", num_cold_blocks),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if hot_window < 1:
            raise ValueError("hot_window must be >= 1")
        super().__init__(
            flash, logical_pages,
            num_seq_log_blocks + num_hot_blocks + num_cold_blocks)
        self.num_seq_log_blocks = num_seq_log_blocks
        self.num_hot_blocks = num_hot_blocks
        self.num_cold_blocks = num_cold_blocks
        self.hot_window = hot_window
        self._hot_blocks: List[int] = []   # age order, current is last
        self._cold_blocks: List[int] = []
        self._recent: "OrderedDict[int, None]" = OrderedDict()  # hot filter
        #: Dead hot/cold log blocks reclaimed without any merge.
        self.dead_block_erases = 0

    def write(self, lpn: int, data: Any = None) -> HostResult:
        result = super().write(lpn, data)
        self._touch(lpn)
        return result

    def ram_bytes(self) -> int:
        return (
            self.num_lbns * MAP_ENTRY_BYTES
            + self._rw_map.mapped_count() * 2 * MAP_ENTRY_BYTES
            + self.hot_window * MAP_ENTRY_BYTES
            + (self.num_seq_log_blocks + self.num_hot_blocks
               + self.num_cold_blocks) * MAP_ENTRY_BYTES
        )

    # ------------------------------------------------------------------
    # Locality tracking
    # ------------------------------------------------------------------
    def _touch(self, lpn: int) -> None:
        self._recent[lpn] = None
        self._recent.move_to_end(lpn)
        while len(self._recent) > self.hot_window:
            self._recent.popitem(last=False)

    def _is_hot(self, lpn: int) -> bool:
        return lpn in self._recent

    # ------------------------------------------------------------------
    # What LAST adds to the log buffer
    # ------------------------------------------------------------------
    def _append_seq(self, lbn: int, pbn: int, lpn: int, off: int,
                    data: Any) -> float:
        """A sequential log merges (switches) the moment it fills."""
        latency = super()._append_seq(lbn, pbn, lpn, off, data)
        if self.flash.write_ptr[pbn] >= self.pages_per_block:
            latency += self._merge_seq(lbn)
        return latency

    def _write_random(self, lpn: int, data: Any) -> float:
        """Random partition with hot/cold split."""
        if self._is_hot(lpn):
            return self._append_random(
                self._hot_blocks, self.num_hot_blocks, lpn, data)
        return self._append_random(
            self._cold_blocks, self.num_cold_blocks, lpn, data)

    def _reclaim(self, partition: List[int]) -> float:
        """Reclaim one block from a random partition.

        Dead blocks (all pages superseded) are erased for free - LAST's
        payoff for clustering hot pages.  Otherwise the oldest block is
        merged FAST-style.
        """
        for i, pbn in enumerate(partition):
            if self.flash.valid_count[pbn] == 0:
                partition.pop(i)
                self.dead_block_erases += 1
                return self._erase(pbn)
        return super()._reclaim(partition)
