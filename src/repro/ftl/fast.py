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

from typing import Any, Dict, List, Optional

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import OOBData, SequenceCounter
from ..obs.events import Cause, EventType
from ..perf.maptable import MapTable
from .base import UNMAPPED_READ_US, FlashTranslationLayer, HostResult
from .pool import BlockPool


class _SWLog:
    """State of the single sequential-write log block."""

    __slots__ = ("pbn", "lbn")

    def __init__(self, pbn: int, lbn: int):
        self.pbn = pbn
        self.lbn = lbn


class FastFTL(FlashTranslationLayer):
    """Fully-Associative Sector Translation.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        num_rw_log_blocks: Random-write log-block pool size.
    """

    name = "FAST"
    requires_random_program = True

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_rw_log_blocks: int = 8,
    ):
        super().__init__(flash, logical_pages)
        if num_rw_log_blocks < 1:
            raise ValueError("num_rw_log_blocks must be >= 1")
        pages = flash.geometry.pages_per_block
        self.pages_per_block = pages
        self.num_lbns = (logical_pages + pages - 1) // pages
        required = self.num_lbns + num_rw_log_blocks + 3
        if flash.geometry.num_blocks < required:
            raise ValueError(
                f"device too small: FAST needs >= {required} blocks"
            )
        self.num_rw_log_blocks = num_rw_log_blocks
        self._block_map = MapTable(self.num_lbns)
        self._sw: Optional[_SWLog] = None
        self._rw_blocks: List[int] = []   # allocation (age) order
        self._rw_map = MapTable(logical_pages)  # lpn -> latest RW copy
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        ppn = self._locate(lpn)
        if ppn is None:
            return HostResult(UNMAPPED_READ_US)
        data, _, latency = self.flash.read_page(ppn)
        return HostResult(latency, data)

    def write(self, lpn: int, data: Any = None) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        latency = 0.0
        data_pbn = self._block_map.get(lbn)
        if data_pbn is None:
            data_pbn = self._pool.allocate()
            self._block_map[lbn] = data_pbn
            latency += self._program(data_pbn, off, lpn, data)
            return HostResult(latency)
        if self.flash.block(data_pbn).is_free(off):
            # A partial merge can leave this slot free while a newer copy
            # still lives in a log block - retire that copy first.
            self._invalidate_current(lpn)
            latency += self._program(data_pbn, off, lpn, data)
            return HostResult(latency)
        if off == 0:
            latency += self._write_sw_start(lbn, lpn, data)
            return HostResult(latency)
        if (
            self._sw is not None
            and self._sw.lbn == lbn
            and self.flash.block(self._sw.pbn).write_ptr == off
        ):
            latency += self._append_sw(lpn, off, data)
            return HostResult(latency)
        latency += self._write_rw(lpn, data)
        return HostResult(latency)

    def ram_bytes(self) -> int:
        """Block map + fully-associative RW page map (8 bytes per entry)."""
        return (
            self.num_lbns * MAP_ENTRY_BYTES
            + self._rw_map.mapped_count() * 2 * MAP_ENTRY_BYTES
            + (self.num_rw_log_blocks + 1) * MAP_ENTRY_BYTES
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _locate(self, lpn: int) -> Optional[int]:
        """Physical location of the latest valid copy of ``lpn``."""
        ppn = self._rw_map.get(lpn)
        if ppn is not None:
            return ppn
        lbn, off = divmod(lpn, self.pages_per_block)
        if self._sw is not None and self._sw.lbn == lbn:
            sw_block = self.flash.block(self._sw.pbn)
            if off < sw_block.write_ptr and sw_block.is_valid(off):
                return self.flash.geometry.ppn_of(self._sw.pbn, off)
        data_pbn = self._block_map.get(lbn)
        if data_pbn is not None:
            if self.flash.block(data_pbn).is_valid(off):
                return self.flash.geometry.ppn_of(data_pbn, off)
        return None

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _program(self, pbn: int, off: int, lpn: int, data: Any) -> float:
        ppn = self.flash.geometry.ppn_of(pbn, off)
        return self.flash.program_page(
            ppn, data, OOBData(lpn=lpn, seq=self._seq.next())
        )

    def _invalidate_current(self, lpn: int) -> None:
        ppn = self._locate(lpn)
        if ppn is not None:
            self.flash.invalidate_page(ppn)
        self._rw_map.pop(lpn, None)

    def _write_sw_start(self, lbn: int, lpn: int, data: Any) -> float:
        """An offset-0 write starts a fresh sequential stream."""
        latency = 0.0
        if self._sw is not None:
            latency += self._merge_sw()
        self._sw = _SWLog(self._pool.allocate(), lbn)
        self._invalidate_current(lpn)
        latency += self._program(self._sw.pbn, 0, lpn, data)
        return latency

    def _append_sw(self, lpn: int, off: int, data: Any) -> float:
        self._invalidate_current(lpn)
        return self._program(self._sw.pbn, off, lpn, data)

    def _write_rw(self, lpn: int, data: Any) -> float:
        latency = self._ensure_rw_space()
        pbn = self._rw_blocks[-1]
        off = self.flash.block(pbn).write_ptr
        self._invalidate_current(lpn)
        latency += self._program(pbn, off, lpn, data)
        self._rw_map[lpn] = self.flash.geometry.ppn_of(pbn, off)
        return latency

    def _ensure_rw_space(self) -> float:
        latency = 0.0
        if self._rw_blocks and not self.flash.block(self._rw_blocks[-1]).is_full:
            return latency
        if len(self._rw_blocks) >= self.num_rw_log_blocks:
            latency += self._merge_oldest_rw()
        self._rw_blocks.append(self._pool.allocate())
        return latency

    # ------------------------------------------------------------------
    # Merges
    # ------------------------------------------------------------------
    def _merge_sw(self) -> float:
        """Retire the SW log block: switch if complete, else partial merge."""
        tracer = self._tracer
        if tracer is not None:
            lbn = self._sw.lbn  # the inner call clears self._sw
            tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                              lpn=lbn, kind="sw")
        try:
            return self._merge_sw_inner()
        finally:
            if tracer is not None:
                tracer.span_end(EventType.MERGE_END, lpn=lbn, kind="sw")

    def _merge_sw_inner(self) -> float:
        sw = self._sw
        self._sw = None
        sw_block = self.flash.block(sw.pbn)
        data_pbn = self._block_map[sw.lbn]
        geometry = self.flash.geometry
        latency = 0.0
        if sw_block.is_full and sw_block.valid_count == self.pages_per_block:
            self.stats.merges_switch += 1
        else:
            self.stats.merges_partial += 1
            data_block = self.flash.block(data_pbn)
            for off in range(sw_block.write_ptr, self.pages_per_block):
                if not data_block.is_valid(off):
                    continue
                src = geometry.ppn_of(data_pbn, off)
                data, oob, read_lat = self.flash.read_page(src)
                latency += read_lat
                latency += self.flash.program_page(
                    geometry.ppn_of(sw.pbn, off),
                    data,
                    OOBData(lpn=oob.lpn, seq=self._seq.next()),
                )
                self.flash.invalidate_page(src)
                self.stats.merge_page_copies += 1
        self._block_map[sw.lbn] = sw.pbn
        latency += self._erase(data_pbn)
        return latency

    def _merge_oldest_rw(self) -> float:
        """Reclaim the oldest RW log block via full merges of its lbns."""
        tracer = self._tracer
        if tracer is not None:
            victim = self._rw_blocks[0]  # the inner call pops it
            tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                              ppn=victim, kind="rw")
        try:
            return self._merge_oldest_rw_inner()
        finally:
            if tracer is not None:
                tracer.span_end(EventType.MERGE_END, ppn=victim, kind="rw")

    def _merge_oldest_rw_inner(self) -> float:
        victim = self._rw_blocks.pop(0)
        victim_block = self.flash.block(victim)
        geometry = self.flash.geometry
        latency = 0.0
        lbns = []
        for off in victim_block.valid_offsets():
            oob = victim_block.oob(off)
            lbn = oob.lpn // self.pages_per_block
            if lbn not in lbns:
                lbns.append(lbn)
        for lbn in lbns:
            latency += self._full_merge_lbn(lbn)
        latency += self._erase(victim)
        return latency

    def _full_merge_lbn(self, lbn: int) -> float:
        """Rebuild one logical block from all its scattered latest copies."""
        self.stats.merges_full += 1
        geometry = self.flash.geometry
        latency = 0.0
        new_pbn = self._pool.allocate()
        base = lbn * self.pages_per_block
        for off in range(self.pages_per_block):
            lpn = base + off
            if lpn >= self.logical_pages:
                break
            src = self._locate(lpn)
            if src is None:
                continue
            data, oob, read_lat = self.flash.read_page(src)
            latency += read_lat
            latency += self.flash.program_page(
                geometry.ppn_of(new_pbn, off),
                data,
                OOBData(lpn=lpn, seq=self._seq.next()),
            )
            self.flash.invalidate_page(src)
            self._rw_map.pop(lpn, None)
            self.stats.merge_page_copies += 1
        old_pbn = self._block_map[lbn]
        self._block_map[lbn] = new_pbn
        latency += self._erase(old_pbn)
        if self._sw is not None and self._sw.lbn == lbn:
            # All the SW block's valid pages belonged to this lbn and were
            # just consumed; retire the now-empty SW block.
            latency += self._erase(self._sw.pbn)
            self._sw = None
        return latency
