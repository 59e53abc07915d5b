"""The ideal page-mapping FTL (the paper's "theoretically optimal" baseline).

Keeps the entire logical-to-physical page map in RAM, writes host pages
log-structured into an active block, and reclaims space with the shared
cost-benefit garbage collector LazyFTL and DFTL run.  No mapping traffic
ever hits flash, so its response time is a lower bound that LazyFTL is
measured against ("very close to the theoretically optimal solution").

Its RAM cost - 4 bytes per logical page, tens of MB for real devices - is
exactly what makes it impractical and motivates DFTL and LazyFTL.
"""

from __future__ import annotations

from typing import Any, Set

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import OOBData, SequenceCounter
from ..perf.maptable import MapTable
from .base import (
    UNMAPPED_READ_US,
    FlashTranslationLayer,
    ReadResult,
    read_result,
)
from .gc_policy import GarbageCollector
from .pool import BlockPool
from .stripe import Frontier, relocate, spare_block, stripe_ways


class PageFTL(FlashTranslationLayer):
    """Ideal page-level FTL with a fully RAM-resident map.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space; must leave at least
            ``gc_free_threshold + 2`` blocks of slack for GC to function.
        gc_free_threshold: GC runs whenever the free pool is at or below
            this many blocks.
    """

    name = "ideal"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        gc_free_threshold: int = 2,
    ):
        super().__init__(flash, logical_pages)
        if gc_free_threshold < 2:
            raise ValueError("gc_free_threshold must be >= 2")
        pages = flash.geometry.pages_per_block
        min_blocks = (logical_pages + pages - 1) // pages + gc_free_threshold + 2
        if flash.geometry.num_blocks < min_blocks:
            raise ValueError(
                f"device too small: need >= {min_blocks} blocks for "
                f"{logical_pages} logical pages plus GC slack"
            )
        self.gc_free_threshold = gc_free_threshold
        self._map = MapTable(logical_pages)
        self._pages_per_block = flash.geometry.pages_per_block
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()
        self._gc = GarbageCollector(
            flash, self._pool, self.stats, self._seq, gc_free_threshold,
            self._collect_data_block)
        # Host and GC destinations each keep up to `ways` blocks open,
        # each page to the least-busy unit, so program bursts overlap
        # (one way on the serial device); full blocks retire to GC's
        # victim pool.
        ways = stripe_ways(flash.geometry.channels)
        retire = self._gc.blocks.add
        self._active = Frontier(flash, self._pool, ways, retire)
        self._gc_active = Frontier(flash, self._pool, ways, retire)

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> ReadResult:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        self.stats.host_reads += 1
        ppn = self._map.raw[lpn]
        if ppn < 0:
            return read_result((None, UNMAPPED_READ_US))
        return read_result(self.flash.read_page(ppn))

    def write(self, lpn: int, data: Any = None) -> float:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        self.stats.host_writes += 1
        flash = self.flash
        # An extra way opens only while the pool sits above the GC
        # threshold, so striping never eats the reclaim cushion.
        pbn = self._active.take(self.gc_free_threshold)
        if pbn is None:
            latency = self._gc.reclaim()
            pbn = self._active.open()
        else:
            latency = 0.0
        ppn = self._frontier(pbn)
        latency += flash.program_page(
            ppn, data, OOBData(lpn, self._seq.next())
        )
        map_raw = self._map.raw
        old = map_raw[lpn]
        if old >= 0:
            flash.invalidate_page(old)
        map_raw[lpn] = ppn
        return latency

    def ram_bytes(self) -> int:
        return self.logical_pages * MAP_ENTRY_BYTES

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        flash: NandFlash,
        logical_pages: int,
        gc_free_threshold: int = 2,
    ) -> "PageFTL":
        """Rebuild an ideal-FTL instance from flash after a power loss.

        The ideal scheme keeps no flash-resident mapping metadata, so
        recovery is a full OOB scan: for every logical page the
        highest-sequence copy on flash is the live one (each program
        carries a fresh sequence number and eagerly invalidates its
        predecessor, so the newest copy is the acknowledged copy by
        construction).  Blocks holding any programmed page become data
        blocks; fully erased blocks return to the allocation pool.

        This is the reference recovery design the crash model checker
        (:mod:`repro.checks.crashmc`) compares LazyFTL's bounded-scan
        recovery against.
        """
        flash.power_on()
        ftl = cls(flash, logical_pages, gc_free_threshold)
        geometry = flash.geometry
        best: dict = {}  # lpn -> (seq, ppn)
        occupied: Set[int] = set()
        max_seq = -1
        pages_read = 0
        for pbn in range(geometry.num_blocks):
            if flash.is_bad[pbn]:
                continue
            for offset in range(geometry.pages_per_block):
                ppn = geometry.ppn_of(pbn, offset)
                oob, _ = flash.probe_page(ppn)
                pages_read += 1
                if oob is None:
                    break  # sequential programming: the rest is erased
                occupied.add(pbn)
                if oob.seq > max_seq:
                    max_seq = oob.seq
                prev = best.get(oob.lpn)
                if prev is None or oob.seq > prev[0]:
                    best[oob.lpn] = (oob.seq, ppn)
        map_raw = ftl._map.raw
        for lpn, (_, ppn) in best.items():
            if lpn < logical_pages:
                map_raw[lpn] = ppn
        ftl._gc.blocks.update(occupied)
        ftl._pool.refill(
            b for b in ftl._pool.snapshot() if b not in occupied)
        ftl._seq.fast_forward(max_seq)
        ftl.stats.recovery_reads += pages_read
        return ftl

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _frontier(self, pbn: int) -> int:
        """Physical page number of the block's next free page."""
        return pbn * self._pages_per_block + self.flash.write_ptr[pbn]

    def _collect_data_block(self, victim: int) -> float:
        """Relocate a victim's valid pages (by run, through the one
        driver) and repoint the RAM map."""
        return relocate(
            self.flash, self._gc_active, self.flash.valid_ppns(victim),
            spare_block, self._seq, self.stats, self._map.set_many,
        )
