"""DFTL: Demand-based page-level FTL (the strongest published baseline).

DFTL keeps the full page map in flash ("translation pages") and caches hot
mapping entries in a small RAM table, the **CMT** (cached mapping table).
A translation miss costs a flash read; evicting a dirty entry costs a
read-modify-write of its translation page (amortised by *batch eviction*:
all dirty entries of the same translation page are flushed together).
Garbage collection updates translation pages directly when it relocates
data ("lazy copying").

The translation pages, the GTD that locates them and their blocks are the
shared :class:`~repro.ftl.mapping.MappingStore`; what is DFTL's own is the
CMT, which dirty entries a flush or a GC pass writes back, and the
store's destination policy (:meth:`DftlFTL._trans_destination`: reclaim
when the pool is low, except inside GC).  Dirty entries are also indexed
by translation page (the UMT's :class:`~repro.ftl.mapping.LpnsByPage`),
so a flush never walks the CMT; :meth:`DftlFTL._mark_dirty` and
:meth:`DftlFTL._mark_clean` are the only places the flag flips, and they
keep the index with it.  LazyFTL keeps that skeleton but defers and
batches mapping updates through the UMT instead of paying per-eviction
read-modify-writes.

Reference: Gupta, Kim, Urgaonkar, "DFTL: a flash translation layer
employing demand-based selective caching of page-level address mappings"
(ASPLOS 2009).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import PageKind, SequenceCounter, make_oob
from ..obs.events import Cause
from ..perf.maptable import UNMAPPED
from .base import (
    UNMAPPED_READ_US,
    FlashTranslationLayer,
    ReadResult,
    read_result,
)
from .gc_policy import GarbageCollector
from .mapping import LpnsByPage, MappingStore
from .pool import BlockPool, OutOfBlocksError
from .stripe import Frontier, relocate, spare_block, stripe_ways


class _CmtEntry:
    """One cached mapping entry; born clean."""

    __slots__ = ("ppn", "dirty")

    def __init__(self, ppn: Optional[int]):
        self.ppn = ppn
        self.dirty = False


class DftlFTL(FlashTranslationLayer):
    """Demand-based FTL with a capacity-bounded CMT.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        cmt_entries: CMT capacity in mapping entries (the RAM knob swept by
            the E9 experiment).
        gc_free_threshold: GC runs when the free pool is at or below this.

    Eviction is batched (DFTL's batching optimisation): a flush writes
    back every dirty CMT entry of the victim's translation page.
    """

    name = "DFTL"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        cmt_entries: int = 2048,
        gc_free_threshold: int = 4,
    ):
        super().__init__(flash, logical_pages)
        if cmt_entries < 1:
            raise ValueError("cmt_entries must be >= 1")
        if gc_free_threshold < 3:
            raise ValueError("gc_free_threshold must be >= 3")
        pages = flash.geometry.pages_per_block
        min_blocks = (logical_pages + pages - 1) // pages + gc_free_threshold + 4
        if flash.geometry.num_blocks < min_blocks:
            raise ValueError(
                f"device too small: DFTL needs >= {min_blocks} blocks"
            )
        self.cmt_entries = cmt_entries
        self.gc_free_threshold = gc_free_threshold
        # The CMT is a bounded LRU keyed by lpn with per-entry dirty bits;
        # it is sparse by design (capacity << logical space), so a flat
        # table would waste the RAM the scheme exists to save.
        self._cmt: "OrderedDict[int, _CmtEntry]" = OrderedDict()
        pool = self._pool = BlockPool.for_device(flash)
        self._pages_per_block = flash.geometry.pages_per_block
        self._seq = SequenceCounter()
        # The translation pages, their directory and their blocks; only
        # where the next one may go (_trans_destination) is DFTL's.
        entries = flash.geometry.map_entries_per_page
        self._maps = MappingStore(
            flash, pool, self.stats, self._seq,
            (logical_pages + entries - 1) // entries,
            self._trans_destination,
        )
        #: The dirty CMT entries' lpns, by translation page.
        self._dirty = LpnsByPage(entries)
        self._gc = GarbageCollector(
            flash, pool, self.stats, self._seq, gc_free_threshold,
            self._collect_data_block, self._maps,
        )
        # Each frontier keeps up to ``ways`` blocks open and puts each
        # page on the least-busy unit, so program bursts (host writes, GC
        # relocation) land on different parallel units and overlap; one
        # way on the serial device.  Full blocks retire to the collector's
        # victim pool.
        ways = stripe_ways(flash.geometry.channels)
        retire = self._gc.blocks.add
        self._data_active = Frontier(flash, pool, ways, retire)
        self._gc_active = Frontier(flash, pool, ways, retire)

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> ReadResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        ppn, latency = self._lookup(lpn)
        if ppn is None:
            return read_result((None, latency + UNMAPPED_READ_US))
        data, read_lat = self.flash.read_page(ppn)
        return read_result((data, latency + read_lat))

    def write(self, lpn: int, data: Any = None) -> float:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        self.stats.host_writes += 1
        flash = self.flash
        ppb = self._pages_per_block
        _, latency = self._lookup(lpn)
        active = self._data_active.take(self.gc_free_threshold)
        if active is None:
            latency += self._gc.reclaim()
            active = self._data_active.open()
        # Re-resolve after space allocation: GC may have relocated the old
        # copy meanwhile (the CMT entry is kept current by GC).
        entry = self._cmt[lpn]  # present: _lookup just inserted/refreshed it
        old_ppn = entry.ppn
        ppn = active * ppb + flash.write_ptr[active]
        latency += flash.program_page(
            ppn, data, make_oob((lpn, self._seq.next(), PageKind.DATA, False))
        )
        if old_ppn is not None:
            flash.invalidate_page(old_ppn)
        entry.ppn = ppn
        self._mark_dirty(lpn, entry)
        self._cmt.move_to_end(lpn)
        return latency

    def ram_bytes(self) -> int:
        """CMT (8 B/entry: lpn + ppn) + GTD (4 B/translation page)."""
        return self.cmt_entries * 2 * MAP_ENTRY_BYTES + \
            self._maps.ram_bytes()

    # ------------------------------------------------------------------
    # Translation path
    # ------------------------------------------------------------------
    def _lookup(self, lpn: int) -> Tuple[Optional[int], float]:
        """Resolve lpn via CMT, fetching from flash on a miss."""
        entry = self._cmt.get(lpn)
        if entry is not None:
            self._cmt.move_to_end(lpn)
            return entry.ppn, 0.0
        # CMT miss: evictions and the translation-page fetch below are
        # translation overhead on the host path.
        tracer = self._tracer
        if tracer is not None:
            tracer.push_cause(Cause.MAPPING)
        try:
            latency = self._make_room()
            ppn, read_lat = self._maps.lookup(lpn)
            latency += read_lat
        finally:
            if tracer is not None:
                tracer.pop_cause()
        self._cmt[lpn] = _CmtEntry(ppn)
        return ppn, latency

    def _mark_dirty(self, lpn: int, entry: _CmtEntry) -> None:
        """The one place a CMT entry turns dirty (flag and index)."""
        entry.dirty = True
        self._dirty.add(lpn)

    def _mark_clean(self, lpn: int, entry: _CmtEntry) -> None:
        """The one place a CMT entry turns clean: flash now holds it."""
        entry.dirty = False
        self._dirty.discard(lpn)

    def _make_room(self) -> float:
        """Evict until the CMT has room for one more entry."""
        latency = 0.0
        while len(self._cmt) >= self.cmt_entries:
            victim_lpn, victim = next(iter(self._cmt.items()))
            if victim.dirty:
                latency += self._flush_tvpn(victim_lpn)
            self._cmt.pop(victim_lpn, None)
        return latency

    def _flush_tvpn(self, victim_lpn: int) -> float:
        """Write back the dirty CMT entries of the eviction victim's
        translation page."""
        maps = self._maps
        tvpn = maps.tvpn_of(victim_lpn)
        # checkout may run GC, which writes back (and cleans) the entries
        # it moves: the dirty set is only read after it.
        content, latency = maps.checkout(tvpn)
        lpns = list(self._dirty.pages.get(tvpn, ()))
        # The stores commute (one slot and one entry per lpn), so the
        # order the index hands the lpns out in cannot show.
        lo = tvpn * maps.entries_per_page
        for lpn in lpns:
            entry = self._cmt[lpn]
            content[lpn - lo] = UNMAPPED if entry.ppn is None else entry.ppn
            self._mark_clean(lpn, entry)
        return latency + maps.program(tvpn, content)

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------
    def _trans_destination(self, frontier: Frontier) -> Tuple[float, int]:
        """The mapping store's destination policy: latency spent making
        room, and a translation block with room.

        Triggers GC when the pool runs low - except while GC itself is
        running, where the free-threshold reserve covers the allocation
        (guarding against unbounded recursion).
        """
        spare = 1 if self._gc.active else self.gc_free_threshold
        latency = 0.0
        pbn = frontier.take(spare)
        if pbn is None:
            if not self._gc.active:
                latency = self._gc.reclaim()
                # GC may itself have rotated or opened translation
                # blocks; re-check before pulling another pool block.
                pbn = frontier.take(spare)
            if pbn is None:
                pbn = frontier.open()
        return latency, pbn

    def _collect_data_block(self, pbn: int) -> float:
        """Relocate valid data pages and commit their new mappings.

        Pages move by run through the one driver
        (:func:`~repro.ftl.stripe.relocate`).  Mapping updates are grouped
        per translation page (DFTL's lazy copying): one read-modify-write
        commits every moved entry of that page.
        """
        maps = self._maps
        entries_per_page = maps.entries_per_page
        moved: Dict[int, List[Tuple[int, int]]] = {}  # tvpn -> [(lpn, dst)]

        def record_run(pairs: Iterable[Tuple[int, int]]) -> None:
            for lpn, dst in pairs:
                moved.setdefault(lpn // entries_per_page, []).append(
                    (lpn, dst))

        try:
            latency = relocate(
                self.flash, self._gc_active, self.flash.valid_ppns(pbn),
                spare_block, self._seq, self.stats, record_run,
            )
            for tvpn in list(moved):
                content, read_lat = maps.load(tvpn)
                latency += read_lat
                for lpn, dst in moved[tvpn]:
                    content[lpn % entries_per_page] = dst
                    entry = self._cmt.get(lpn)
                    if entry is not None:
                        entry.ppn = dst
                        self._mark_clean(lpn, entry)
                latency += maps.program(tvpn, content)
                del moved[tvpn]
        except OutOfBlocksError:
            # The device died mid-collection: pin the mappings of pages
            # already moved in the CMT (dirty, over budget if need be), or
            # they turn unreadable once this victim is erased.
            for pairs in moved.values():
                for lpn, dst in pairs:
                    entry = self._cmt[lpn] = _CmtEntry(dst)
                    self._mark_dirty(lpn, entry)
            raise
        return latency
