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
from typing import Any, Dict, List, Optional

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import OOBData, SequenceCounter
from ..obs.events import Cause, EventType
from ..perf.maptable import MapTable
from .base import UNMAPPED_READ_US, FlashTranslationLayer, HostResult
from .pool import BlockPool


class _SeqLog:
    """A per-logical-block sequential log block (BAST-style)."""

    __slots__ = ("pbn",)

    def __init__(self, pbn: int):
        self.pbn = pbn


class LastFTL(FlashTranslationLayer):
    """Locality-Aware Sector Translation.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        num_seq_log_blocks: Sequential-partition size (per-lbn associative).
        num_hot_blocks: Hot random-log partition size.
        num_cold_blocks: Cold random-log partition size.
        hot_window: How many recently-updated lpns count as hot.
    """

    name = "LAST"
    requires_random_program = True

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_seq_log_blocks: int = 4,
        num_hot_blocks: int = 4,
        num_cold_blocks: int = 4,
        hot_window: int = 512,
    ):
        super().__init__(flash, logical_pages)
        for name, value in (
            ("num_seq_log_blocks", num_seq_log_blocks),
            ("num_hot_blocks", num_hot_blocks),
            ("num_cold_blocks", num_cold_blocks),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if hot_window < 1:
            raise ValueError("hot_window must be >= 1")
        pages = flash.geometry.pages_per_block
        self.pages_per_block = pages
        self.num_lbns = (logical_pages + pages - 1) // pages
        required = (self.num_lbns + num_seq_log_blocks + num_hot_blocks
                    + num_cold_blocks + 3)
        if flash.geometry.num_blocks < required:
            raise ValueError(
                f"device too small: LAST needs >= {required} blocks"
            )
        self.num_seq_log_blocks = num_seq_log_blocks
        self.num_hot_blocks = num_hot_blocks
        self.num_cold_blocks = num_cold_blocks
        self.hot_window = hot_window
        self._block_map = MapTable(self.num_lbns)
        self._seq_logs: "OrderedDict[int, _SeqLog]" = OrderedDict()
        self._hot_blocks: List[int] = []   # age order, current is last
        self._cold_blocks: List[int] = []
        self._rw_map = MapTable(logical_pages)  # lpn -> latest random-log ppn
        self._recent: "OrderedDict[int, None]" = OrderedDict()  # hot filter
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()
        #: Dead hot/cold log blocks reclaimed without any merge.
        self.dead_block_erases = 0

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
            self._touch(lpn)
            return HostResult(latency)
        if self.flash.block(data_pbn).is_free(off):
            self._invalidate_current(lpn)
            latency += self._program(data_pbn, off, lpn, data)
            self._touch(lpn)
            return HostResult(latency)
        # Update: route by locality.
        seq = self._seq_logs.get(lbn)
        if seq is not None and self.flash.block(seq.pbn).write_ptr == off:
            latency += self._append_seq(seq, lbn, lpn, off, data)
        elif off == 0:
            latency += self._start_seq(lbn, lpn, data)
        else:
            latency += self._write_random(lpn, data)
        self._touch(lpn)
        return HostResult(latency)

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
    # Lookup
    # ------------------------------------------------------------------
    def _locate(self, lpn: int) -> Optional[int]:
        ppn = self._rw_map.get(lpn)
        if ppn is not None:
            return ppn
        lbn, off = divmod(lpn, self.pages_per_block)
        seq = self._seq_logs.get(lbn)
        if seq is not None:
            block = self.flash.block(seq.pbn)
            if off < block.write_ptr and block.is_valid(off):
                return self.flash.geometry.ppn_of(seq.pbn, off)
        data_pbn = self._block_map.get(lbn)
        if data_pbn is not None and \
                self.flash.block(data_pbn).is_valid(off):
            return self.flash.geometry.ppn_of(data_pbn, off)
        return None

    # ------------------------------------------------------------------
    # Sequential partition (BAST-style per-lbn logs)
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

    def _start_seq(self, lbn: int, lpn: int, data: Any) -> float:
        latency = 0.0
        existing = self._seq_logs.get(lbn)
        if existing is not None:
            latency += self._merge_seq(lbn)
        elif len(self._seq_logs) >= self.num_seq_log_blocks:
            victim_lbn = next(iter(self._seq_logs))
            latency += self._merge_seq(victim_lbn)
        self._seq_logs[lbn] = _SeqLog(self._pool.allocate())
        self._invalidate_current(lpn)
        latency += self._program(self._seq_logs[lbn].pbn, 0, lpn, data)
        return latency

    def _append_seq(self, seq: _SeqLog, lbn: int, lpn: int, off: int,
                    data: Any) -> float:
        self._seq_logs.move_to_end(lbn)
        self._invalidate_current(lpn)
        latency = self._program(seq.pbn, off, lpn, data)
        if self.flash.block(seq.pbn).is_full:
            latency += self._merge_seq(lbn)
        return latency

    def _merge_seq(self, lbn: int) -> float:
        """Switch or partial merge of a sequential log block."""
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                              lpn=lbn, kind="seq")
        try:
            return self._merge_seq_inner(lbn)
        finally:
            if tracer is not None:
                tracer.span_end(EventType.MERGE_END, lpn=lbn, kind="seq")

    def _merge_seq_inner(self, lbn: int) -> float:
        seq = self._seq_logs.pop(lbn)
        log_block = self.flash.block(seq.pbn)
        data_pbn = self._block_map[lbn]
        geometry = self.flash.geometry
        latency = 0.0
        if log_block.is_full and \
                log_block.valid_count == self.pages_per_block:
            self.stats.merges_switch += 1
        else:
            self.stats.merges_partial += 1
            data_block = self.flash.block(data_pbn)
            for off in range(log_block.write_ptr, self.pages_per_block):
                if not data_block.is_valid(off):
                    continue
                src = geometry.ppn_of(data_pbn, off)
                data, oob, read_lat = self.flash.read_page(src)
                latency += read_lat
                latency += self.flash.program_page(
                    geometry.ppn_of(seq.pbn, off),
                    data,
                    OOBData(lpn=oob.lpn, seq=self._seq.next()),
                )
                self.flash.invalidate_page(src)
                self.stats.merge_page_copies += 1
        self._block_map[lbn] = seq.pbn
        latency += self._erase(data_pbn)
        return latency

    # ------------------------------------------------------------------
    # Random partition with hot/cold split
    # ------------------------------------------------------------------
    def _write_random(self, lpn: int, data: Any) -> float:
        hot = self._is_hot(lpn)
        partition = self._hot_blocks if hot else self._cold_blocks
        capacity = self.num_hot_blocks if hot else self.num_cold_blocks
        latency = self._ensure_random_space(partition, capacity)
        pbn = partition[-1]
        off = self.flash.block(pbn).write_ptr
        self._invalidate_current(lpn)
        latency += self._program(pbn, off, lpn, data)
        self._rw_map[lpn] = self.flash.geometry.ppn_of(pbn, off)
        return latency

    def _ensure_random_space(self, partition: List[int],
                             capacity: int) -> float:
        latency = 0.0
        if partition and not self.flash.block(partition[-1]).is_full:
            return latency
        if len(partition) >= capacity:
            latency += self._reclaim_random(partition)
        partition.append(self._pool.allocate())
        return latency

    def _reclaim_random(self, partition: List[int]) -> float:
        """Reclaim one block from a random partition.

        Dead blocks (all pages superseded) are erased for free - LAST's
        payoff for clustering hot pages.  Otherwise the oldest block is
        merged FAST-style.
        """
        for i, pbn in enumerate(partition):
            if self.flash.block(pbn).valid_count == 0:
                partition.pop(i)
                self.dead_block_erases += 1
                return self._erase(pbn)
        victim = partition.pop(0)
        return self._merge_random(victim)

    def _merge_random(self, victim: int) -> float:
        """Full merges for every lbn with valid pages in the victim."""
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                              ppn=victim, kind="random")
        try:
            return self._merge_random_inner(victim)
        finally:
            if tracer is not None:
                tracer.span_end(EventType.MERGE_END, ppn=victim,
                                kind="random")

    def _merge_random_inner(self, victim: int) -> float:
        victim_block = self.flash.block(victim)
        latency = 0.0
        lbns: List[int] = []
        for off in victim_block.valid_offsets():
            lbn = victim_block.oob(off).lpn // self.pages_per_block
            if lbn not in lbns:
                lbns.append(lbn)
        for lbn in lbns:
            latency += self._full_merge_lbn(lbn)
        latency += self._erase(victim)
        return latency

    def _full_merge_lbn(self, lbn: int) -> float:
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
            data, _, read_lat = self.flash.read_page(src)
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
        seq = self._seq_logs.get(lbn)
        if seq is not None and self.flash.block(seq.pbn).valid_count == 0:
            self._seq_logs.pop(lbn)
            latency += self._erase(seq.pbn)
        return latency
