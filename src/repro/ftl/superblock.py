"""Superblock FTL (extra log-block-era baseline).

The superblock scheme (Kang et al., "A superblock-based flash translation
layer for NAND flash memory", EMSOFT 2006) groups N consecutive logical
blocks into a *superblock* mapped onto M >= N physical blocks.  Inside a
superblock the mapping is page-level, so updates append log-structured to
the group's blocks; reclamation happens *within* the group by copying the
least-valid member block's live pages into a fresh block.  It behaves
like a family of small page-mapping FTLs - much better than BAST/FAST on
random writes confined to a group, but still forced to copy within a
group whose spare factor (M-N) is small.

Modelling note: the original stores the in-superblock page map in OOB
areas with a three-level index and caches fragments in RAM; we keep the
per-group maps in RAM and model lookups as free, which *favours* this
baseline (its translation overhead is underestimated).  ``ram_bytes``
reports the full map we actually keep, making the unfavourable RAM story
visible instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import OOBData, SequenceCounter
from ..obs.events import Cause, EventType
from .base import (
    UNMAPPED_READ_US,
    FlashTranslationLayer,
    ReadResult,
    read_result,
)
from .gc_policy import select_greedy
from .pool import BlockPool


class _Superblock:
    """One group: member physical blocks + page-level map."""

    __slots__ = ("blocks", "page_map")

    def __init__(self, group_pages: int):
        self.blocks: List[int] = []
        self.page_map: List[Optional[int]] = [None] * group_pages


class SuperblockFTL(FlashTranslationLayer):
    """Superblock-based FTL.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        blocks_per_superblock: Logical blocks per group (N).
        spare_per_superblock: Extra physical blocks per group (M - N);
            the group's private overprovisioning.
    """

    name = "superblock"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        blocks_per_superblock: int = 8,
        spare_per_superblock: int = 1,
    ):
        super().__init__(flash, logical_pages)
        if blocks_per_superblock < 1:
            raise ValueError("blocks_per_superblock must be >= 1")
        if spare_per_superblock < 1:
            raise ValueError("spare_per_superblock must be >= 1")
        pages = flash.geometry.pages_per_block
        self.pages_per_block = pages
        self.group_logical_blocks = blocks_per_superblock
        self.group_max_blocks = blocks_per_superblock + spare_per_superblock
        self.group_pages = blocks_per_superblock * pages
        num_lbns = (logical_pages + pages - 1) // pages
        self.num_groups = (
            num_lbns + blocks_per_superblock - 1
        ) // blocks_per_superblock
        required = self.num_groups * self.group_max_blocks + 2
        if flash.geometry.num_blocks < required:
            raise ValueError(
                f"device too small: superblock FTL needs >= {required} "
                f"blocks ({self.num_groups} groups x "
                f"{self.group_max_blocks})"
            )
        self._groups: Dict[int, _Superblock] = {}
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def _locate(self, lpn: int) -> Tuple[
            Optional["_Superblock"], Optional[int], Optional[int]]:
        group_id, offset = divmod(lpn, self.group_pages)
        group = self._groups.get(group_id)
        if group is None:
            return None, None, None
        return group, offset, group.page_map[offset]

    def read(self, lpn: int) -> ReadResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        _, _, ppn = self._locate(lpn)
        if ppn is None:
            return read_result((None, UNMAPPED_READ_US))
        return read_result(self.flash.read_page(ppn))

    def write(self, lpn: int, data: Any = None) -> float:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        group_id, offset = divmod(lpn, self.group_pages)
        group = self._groups.setdefault(
            group_id, _Superblock(self.group_pages)
        )
        latency = self._ensure_group_space(group)
        ppn = self._frontier(group)
        latency += self.flash.program_page(
            ppn, data, OOBData(lpn=lpn, seq=self._seq.next())
        )
        old = group.page_map[offset]
        if old is not None:
            self.flash.invalidate_page(old)
        group.page_map[offset] = ppn
        return latency

    def ram_bytes(self) -> int:
        """Group directory + per-group page maps (see the modelling note)
        and member-block lists."""
        map_entries = sum(
            len(g.page_map) for g in self._groups.values()
        )
        block_entries = sum(len(g.blocks) for g in self._groups.values())
        return (
            self.num_groups + map_entries + block_entries
        ) * MAP_ENTRY_BYTES

    # ------------------------------------------------------------------
    # Group space management
    # ------------------------------------------------------------------
    def _frontier(self, group: _Superblock) -> int:
        pbn = group.blocks[-1]
        return pbn * self.pages_per_block + self.flash.write_ptr[pbn]

    def _ensure_group_space(self, group: _Superblock) -> float:
        latency = 0.0
        while not group.blocks or \
                self.flash.write_ptr[group.blocks[-1]] >= self.pages_per_block:
            if len(group.blocks) >= self.group_max_blocks:
                latency += self._clean_group(group)
                continue  # cleaning may have opened a relocation frontier
            group.blocks.append(self._pool.allocate())
        return latency

    def _clean_group(self, group: _Superblock) -> float:
        """In-group GC: recycle the least-valid member block.

        Valid pages move to the group frontier (a fresh block allocated by
        the caller's retry); to keep the group within its block budget the
        victim is erased and dropped first.
        """
        self.stats.gc_runs += 1
        victim = select_greedy(
            group.blocks[:-1] or group.blocks[:1], self.flash.valid_count
        )
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(EventType.GC_START, Cause.GC, ppn=victim)
        try:
            return self._clean_group_inner(group, victim)
        finally:
            if tracer is not None:
                tracer.span_end(EventType.GC_END, ppn=victim)

    def _clean_group_inner(self, group: _Superblock, victim: int) -> float:
        geometry = self.flash.geometry
        latency = 0.0
        # Move the victim's live pages into the newest block's free pages;
        # allocate a relocation block if the group has no room.
        relocation: Optional[int] = None
        for src in self.flash.valid_ppns(victim):
            data, read_lat = self.flash.read_page(src)
            lpn = self.flash.oob_lpn[src]
            latency += read_lat
            dst = self._relocation_slot(group, victim)
            if dst is None:
                if relocation is None:
                    relocation = self._pool.allocate()
                    group.blocks.append(relocation)
                dst = geometry.ppn_of(
                    relocation, self.flash.write_ptr[relocation])
            latency += self.flash.program_page(
                dst, data, OOBData(lpn=lpn, seq=self._seq.next())
            )
            group.page_map[lpn % self.group_pages] = dst
            self.flash.invalidate_page(src)
            self.stats.gc_page_copies += 1
        latency += self._erase(victim)
        group.blocks.remove(victim)
        return latency

    def _relocation_slot(self, group: _Superblock,
                         victim_pbn: int) -> Optional[int]:
        """A free page in an existing member block (excluding the victim)."""
        write_ptr = self.flash.write_ptr
        for pbn in group.blocks:
            if pbn != victim_pbn and write_ptr[pbn] < self.pages_per_block:
                return pbn * self.pages_per_block + write_ptr[pbn]
        return None
