"""BAST: Block-Associative Sector Translation (log-block FTL baseline).

BAST keeps a coarse block-level mapping table in RAM and absorbs updates in
a small pool of *log blocks*, each dedicated to one logical block.  When the
pool is exhausted (or a log block fills up) the log block is *merged* with
its data block:

* **switch merge** - the log block was written fully and exactly in order:
  it simply becomes the data block (1 erase);
* **partial merge** - the log block holds an in-order prefix: the remaining
  pages are copied in from the data block, then switch (copies + 1 erase);
* **full merge** - anything else: a fresh block gathers the latest copy of
  every page, then both old blocks are erased (up to ``pages_per_block``
  copies + 2 erases).

Under random writes almost every merge is a full merge, which is the
overhead LazyFTL eliminates.  Reference: Kim et al., "A space-efficient
flash translation layer for CompactFlash systems" (2002).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import OOBData, SequenceCounter
from ..obs.events import Cause, EventType
from ..perf.maptable import MapTable
from .base import UNMAPPED_READ_US, FlashTranslationLayer, HostResult
from .pool import BlockPool


class _LogBlock:
    """RAM state of one log block: where each offset's latest copy lives."""

    __slots__ = ("pbn", "entries")

    def __init__(self, pbn: int):
        self.pbn = pbn
        self.entries: Dict[int, int] = {}  # data offset -> log offset (latest)


class BastFTL(FlashTranslationLayer):
    """Block-Associative Sector Translation.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space (rounded up internally to
            whole logical blocks).
        num_log_blocks: Size of the log-block pool; the scheme's key knob.
    """

    name = "BAST"
    requires_random_program = True

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_log_blocks: int = 8,
    ):
        super().__init__(flash, logical_pages)
        if num_log_blocks < 1:
            raise ValueError("num_log_blocks must be >= 1")
        pages = flash.geometry.pages_per_block
        self.pages_per_block = pages
        self.num_lbns = (logical_pages + pages - 1) // pages
        required = self.num_lbns + num_log_blocks + 2
        if flash.geometry.num_blocks < required:
            raise ValueError(
                f"device too small: BAST needs >= {required} blocks "
                f"({self.num_lbns} data + {num_log_blocks} log + 2 spare)"
            )
        self.num_log_blocks = num_log_blocks
        self._block_map = MapTable(self.num_lbns)
        self._logs: "OrderedDict[int, _LogBlock]" = OrderedDict()  # LRU
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        log = self._logs.get(lbn)
        if log is not None and off in log.entries:
            ppn = self.flash.geometry.ppn_of(log.pbn, log.entries[off])
            data, _, latency = self.flash.read_page(ppn)
            return HostResult(latency, data)
        data_pbn = self._block_map.get(lbn)
        if data_pbn is not None:
            block = self.flash.block(data_pbn)
            if block.is_valid(off):
                ppn = self.flash.geometry.ppn_of(data_pbn, off)
                data, _, latency = self.flash.read_page(ppn)
                return HostResult(latency, data)
        return HostResult(UNMAPPED_READ_US)

    def write(self, lpn: int, data: Any = None) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        latency = 0.0
        data_pbn = self._block_map.get(lbn)
        if data_pbn is None:
            # First write into this logical block: in-place program.
            data_pbn = self._pool.allocate()
            self._block_map[lbn] = data_pbn
            latency += self._program(data_pbn, off, lpn, data)
            return HostResult(latency)
        block = self.flash.block(data_pbn)
        if block.is_free(off):
            latency += self._program(data_pbn, off, lpn, data)
            return HostResult(latency)
        # Update: must go to this logical block's log block.
        log = self._logs.get(lbn)
        if log is not None and self.flash.block(log.pbn).is_full:
            latency += self._merge(lbn)
            log = None
            # The merged data block now holds the page at `off` VALID, so
            # the rewrite below still needs a log block.
            data_pbn = self._block_map[lbn]
        if log is None:
            latency += self._allocate_log(lbn)
            log = self._logs[lbn]
        self._logs.move_to_end(lbn)
        log_block = self.flash.block(log.pbn)
        log_off = log_block.write_ptr
        ppn = self.flash.geometry.ppn_of(log.pbn, log_off)
        latency += self.flash.program_page(
            ppn, data, OOBData(lpn=lpn, seq=self._seq.next())
        )
        self._invalidate_previous(lbn, off, log)
        log.entries[off] = log_off
        return HostResult(latency)

    def ram_bytes(self) -> int:
        """Block map + per-log-block offset tables (2 bytes per entry)."""
        log_entries = sum(len(l.entries) for l in self._logs.values())
        return self.num_lbns * MAP_ENTRY_BYTES + log_entries * 2 + \
            self.num_log_blocks * MAP_ENTRY_BYTES

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _program(self, pbn: int, off: int, lpn: int, data: Any) -> float:
        ppn = self.flash.geometry.ppn_of(pbn, off)
        return self.flash.program_page(
            ppn, data, OOBData(lpn=lpn, seq=self._seq.next())
        )

    def _invalidate_previous(
        self, lbn: int, off: int, log: _LogBlock
    ) -> None:
        """Invalidate the copy superseded by a fresh log write."""
        prev_log_off = log.entries.get(off)
        if prev_log_off is not None:
            self.flash.invalidate_page(
                self.flash.geometry.ppn_of(log.pbn, prev_log_off)
            )
            return
        data_pbn = self._block_map.get(lbn)
        if data_pbn is not None:
            block = self.flash.block(data_pbn)
            if block.is_valid(off):
                self.flash.invalidate_page(
                    self.flash.geometry.ppn_of(data_pbn, off)
                )

    def _allocate_log(self, lbn: int) -> float:
        """Attach a fresh log block to ``lbn``, evicting (merging) if full."""
        latency = 0.0
        if len(self._logs) >= self.num_log_blocks:
            victim_lbn = next(iter(self._logs))  # least recently used
            latency += self._merge(victim_lbn)
        self._logs[lbn] = _LogBlock(self._pool.allocate())
        return latency

    def _merge(self, lbn: int) -> float:
        """Merge ``lbn``'s log block with its data block (cheapest form).

        The log stays attached until the merge returns: a full merge that
        cannot allocate (a dying device) must leave its pages readable.
        """
        log = self._logs[lbn]
        data_pbn = self._block_map[lbn]
        log_block = self.flash.block(log.pbn)
        k = log_block.write_ptr
        in_order_prefix = len(log.entries) == k and all(
            log.entries.get(i) == i for i in range(k)
        )
        if in_order_prefix and k == self.pages_per_block:
            kind = "switch"
        elif in_order_prefix and k > 0:
            kind = "partial"
        else:
            kind = "full"
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                              lpn=lbn, kind=kind)
        try:
            if kind == "switch":
                latency = self._switch_merge(lbn, log, data_pbn)
            elif kind == "partial":
                latency = self._partial_merge(lbn, log, data_pbn, k)
            else:
                latency = self._full_merge(lbn, log, data_pbn)
        finally:
            if tracer is not None:
                tracer.span_end(EventType.MERGE_END, lpn=lbn, kind=kind)
        del self._logs[lbn]
        return latency

    def _switch_merge(self, lbn: int, log: _LogBlock, data_pbn: int) -> float:
        """The full, in-order log block simply becomes the data block."""
        self.stats.merges_switch += 1
        self._block_map[lbn] = log.pbn
        # A switch merge only fires when the log block is full and
        # in-order, so every page of the old data block is superseded
        # by construction; no per-page invalidation precedes the erase.
        latency = self._erase(data_pbn)
        return latency

    def _partial_merge(
        self, lbn: int, log: _LogBlock, data_pbn: int, k: int
    ) -> float:
        """Copy the tail of the data block into the log block, then switch."""
        self.stats.merges_partial += 1
        latency = 0.0
        geometry = self.flash.geometry
        data_block = self.flash.block(data_pbn)
        for off in range(k, self.pages_per_block):
            if not data_block.is_valid(off):
                continue
            src = geometry.ppn_of(data_pbn, off)
            data, oob, read_lat = self.flash.read_page(src)
            latency += read_lat
            latency += self.flash.program_page(
                geometry.ppn_of(log.pbn, off),
                data,
                OOBData(lpn=oob.lpn, seq=self._seq.next()),
            )
            self.flash.invalidate_page(src)
            self.stats.merge_page_copies += 1
        self._block_map[lbn] = log.pbn
        latency += self._erase(data_pbn)
        return latency

    def _full_merge(self, lbn: int, log: _LogBlock, data_pbn: int) -> float:
        """Gather every page's latest copy into a fresh block."""
        self.stats.merges_full += 1
        latency = 0.0
        geometry = self.flash.geometry
        new_pbn = self._pool.allocate()
        data_block = self.flash.block(data_pbn)
        for off in range(self.pages_per_block):
            if off in log.entries:
                src = geometry.ppn_of(log.pbn, log.entries[off])
            elif data_block.is_valid(off):
                src = geometry.ppn_of(data_pbn, off)
            else:
                continue
            data, oob, read_lat = self.flash.read_page(src)
            latency += read_lat
            latency += self.flash.program_page(
                geometry.ppn_of(new_pbn, off),
                data,
                OOBData(lpn=oob.lpn, seq=self._seq.next()),
            )
            self.flash.invalidate_page(src)
            self.stats.merge_page_copies += 1
        self._block_map[lbn] = new_pbn
        latency += self._erase(data_pbn)
        latency += self._erase(log.pbn)
        return latency
