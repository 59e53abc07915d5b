"""LazyFTL: the paper's page-level, merge-free flash translation layer.

Control flow in one paragraph: host writes append to the *update frontier*
(newest UBA block) and only touch RAM (a UMT insert).  When the UBA is at
capacity, its **oldest block is converted**: every mapping update it carries
is committed to the in-flash GMT in batch, grouped per GMT page, and the
block - without moving a byte of data - becomes an ordinary DBA block.
Garbage collection picks a DBA (or MBA) victim, relocates its truly-valid
pages into the *cold frontier* (CBA) with mappings again deferred through
the UMT, and erases it - by *run* (:func:`repro.ftl.stripe.relocate`): the
live pages that fit the destination block move in one bulk read / program
/ invalidate, and conversions only happen between runs.  Cold blocks
convert exactly like update blocks.  There is no merge operation anywhere;
that is the paper's headline claim and it holds here by construction
(asserted by the test suite).

Deferred invalidation: when a host write supersedes a page whose mapping
already lives in the GMT, the old flash copy is *not* invalidated
immediately (that would need a GMT read); it is invalidated when the new
mapping is committed at conversion time, or sooner if GC stumbles on it
(the UMT reveals the supersession for free).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.oob import PageKind, SequenceCounter, make_oob
from ..flash.page import VALID
from ..ftl.base import (
    UNMAPPED_READ_US,
    BeginPage,
    EndPage,
    FlashTranslationLayer,
    ReadResult,
    read_result,
)
from ..obs.events import Cause, EventType
from ..ftl.gc_policy import GarbageCollector
from ..ftl.mapping import MappingStore
from ..ftl.pool import BlockPool
from ..ftl.stripe import Frontier, relocate, stripe_ways
from .areas import BlockArea
from .config import LazyConfig
from .umt import UpdateMappingTable, group_by_tvpn

#: Physical blocks reserved as checkpoint anchors (ping-pong pair).  They
#: are never part of the allocation pool, so recovery can always find the
#: latest checkpoint at a fixed location.
ANCHOR_BLOCKS = (0, 1)

#: The OOB kind byte of a data page, for the per-page identity check in
#: :meth:`LazyFTL._retire_displaced` (once per displaced GMT entry - a
#: commit-path hot spot).
_DATA = int(PageKind.DATA)


def _read_pending(read_run: Any, run: List[int], datas: List[Any]) -> float:
    """Read the pending data pages ``run`` as one device run, append their
    data to ``datas`` and empty ``run``; returns the run's latency."""
    got, latency = read_run(run)
    datas += got
    run.clear()
    return latency


class LazyFTL(FlashTranslationLayer):
    """The LazyFTL scheme (paper's primary contribution).

    Args:
        flash: Raw device (managed exclusively).
        logical_pages: Exported logical address space.
        config: Area sizes and optional features; see
            :class:`~repro.core.config.LazyConfig`.
    """

    name = "LazyFTL"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        config: Optional[LazyConfig] = None,
    ):
        super().__init__(flash, logical_pages)
        self.config = config if config is not None else LazyConfig()
        geometry = flash.geometry
        pages = geometry.pages_per_block
        self.entries_per_page = geometry.map_entries_per_page
        self.num_tvpns = (
            logical_pages + self.entries_per_page - 1
        ) // self.entries_per_page
        map_blocks = (self.num_tvpns + pages - 1) // pages + 1
        required = (
            (logical_pages + pages - 1) // pages
            + self.config.uba_blocks
            + self.config.cba_blocks
            + map_blocks
            + self.config.gc_free_threshold
            + len(ANCHOR_BLOCKS)
            + 2
        )
        if geometry.num_blocks < required:
            raise ValueError(
                f"device too small: LazyFTL needs >= {required} blocks for "
                f"{logical_pages} logical pages with this configuration"
            )
        for anchor in ANCHOR_BLOCKS:
            if flash.is_bad[anchor]:
                raise ValueError(
                    f"checkpoint anchor block {anchor} is factory-bad; "
                    "this device cannot host LazyFTL's recovery design"
                )
        #: Cached geometry scalar so the per-write address math below is a
        #: multiply-add instead of a method call through the geometry object.
        self._pages_per_block = geometry.pages_per_block
        self._seq = SequenceCounter()
        self._pool = BlockPool.for_device(flash, reserved=ANCHOR_BLOCKS)
        self._umt = UpdateMappingTable(self.entries_per_page)
        self._uba = BlockArea("UBA", self.config.uba_blocks)
        self._cba = BlockArea("CBA", self.config.cba_blocks)
        self._maps = MappingStore(
            flash,
            self._pool,
            self.stats,
            self._seq,
            self.num_tvpns,
            self._map_destination,
        )
        # The DBA is the collector's victim pool, ``self._gc.blocks``.
        self._gc = GarbageCollector(
            flash, self._pool, self.stats, self._seq,
            self.config.gc_free_threshold,
            self._collect_data_block, self._maps,
        )
        # The UBA and CBA frontiers keep several blocks open on a
        # multi-channel device and spread programs over the parallel units
        # (each to the least-busy) so bursts overlap (one way on the
        # serial device).  Both areas already track their members, so
        # full blocks need no retiring.
        units = geometry.channels
        self._uba_frontier = Frontier(
            flash, self._pool, stripe_ways(units, self.config.uba_blocks))
        self._cba_frontier = Frontier(
            flash, self._pool, stripe_ways(units, self.config.cba_blocks))
        self._writes_since_checkpoint = 0
        #: Hoisted from the (frozen) config: write() skips the periodic-
        #: checkpoint call entirely when checkpointing is off (the default).
        self._ckpt_interval = self.config.checkpoint_interval
        # Imported here to avoid a module cycle (recovery imports LazyFTL).
        from .recovery import CheckpointScribe

        self._scribe = CheckpointScribe(flash, ANCHOR_BLOCKS, self._seq,
                                        self.stats)

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> ReadResult:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        self.stats.host_reads += 1
        flash = self.flash
        umt_ppn = self._umt.ppn_at(lpn)
        if umt_ppn >= 0:
            return read_result(flash.read_page(umt_ppn))
        entries = self.entries_per_page
        content, latency = self._maps.fetch(lpn // entries)
        ppn = -1 if content is None else content[lpn % entries]
        if ppn < 0:
            return read_result((None, latency + UNMAPPED_READ_US))
        data, read_lat = flash.read_page(ppn)
        return read_result((data, latency + read_lat))

    def read_run(self, lpn: int, n: int, begin_page: BeginPage = None,
                 end_page: EndPage = None) -> ReadResult:
        """:meth:`read` once per page, in order - except that a GMT page
        fetched for one page of the run is not fetched again while the
        lpns that follow stay inside it.  The controller holds it for the
        length of the request and drops it at the end: a page register,
        as the commit path holds one during its read-modify-write, not
        modelled RAM (``ram_bytes()`` does not move).  This is the only
        place the rule is written, and the loop is the same in every
        engine configuration; the reused lookups make no ``map_reads``,
        ``page_reads`` or ``read_us`` and emit no ``MAP_READ``.

        The data pages between two GMT fetches go to the device as one
        :meth:`~repro.flash.chip.NandFlash.read_run`, read before the
        next fetch (or unmapped page, whose ``None`` keeps its place in
        ``data``), so the device sees the page loop's op order.  A page
        with per-page duties (``begin_page`` / ``end_page``), or on a
        device that takes no runs, is its own run: one ``read_page``.
        ``host_reads`` counts the pages started, the failing one
        included, as the page loop does.
        """
        first = lpn
        if not 0 <= first < self.logical_pages:
            self._check_lpn(first)
        stop = min(first + n, self.logical_pages)
        flash = self.flash
        read_page = flash.read_page
        read_run = flash.read_run
        solo = begin_page is not None or end_page is not None \
            or not flash.takes_runs()
        fetch = self._maps.fetch
        entries = self.entries_per_page
        uppn = self._umt._ppn  # inline umt.ppn_at: reads do not grow it
        ulen = len(uppn)
        # The GMT page held, ``content``, maps lpns [base, held_end); the
        # lpns only rise, so one bound tells whether it covers the next.
        base = held_end = 0
        content = None
        total = 0.0
        datas: List[Any] = []
        run: List[int] = []  # the data pages not yet read, in order
        lpn = first - 1  # the last page started: host_reads counts it
        try:
            for lpn in range(first, stop):
                if begin_page is not None:
                    begin_page()
                latency = 0.0
                ppn = uppn[lpn] if lpn < ulen else -1
                if ppn < 0:
                    if lpn >= held_end:
                        if run:
                            total += _read_pending(read_run, run, datas)
                        tvpn = lpn // entries
                        content, latency = fetch(tvpn)
                        base = tvpn * entries
                        held_end = base + entries
                    ppn = -1 if content is None else content[lpn - base]
                if ppn < 0:
                    if run:
                        total += _read_pending(read_run, run, datas)
                    latency += UNMAPPED_READ_US
                    datas.append(None)
                elif solo:
                    data, read_lat = read_page(ppn)
                    latency += read_lat
                    datas.append(data)
                else:
                    run.append(ppn)
                total += latency
                if end_page is not None:
                    end_page(False, lpn, latency)
            if run:
                total += _read_pending(read_run, run, datas)
        finally:
            self.stats.host_reads += lpn + 1 - first
        if stop < first + n:
            self._check_lpn(stop)  # the run left the logical space here
        return read_result((datas, total))

    def write(self, lpn: int, data: Any = None) -> float:
        if not 0 <= lpn < self.logical_pages:
            self._check_lpn(lpn)
        self.stats.host_writes += 1
        flash = self.flash
        # The reclaim below runs before the allocation, so an extra UBA
        # way may open on any free block.
        frontier = self._uba_frontier.take(0)
        if frontier is None:
            latency = self._gc.reclaim()
            if self.config.wear_threshold is not None:
                latency += self._maybe_wear_level()
            open_lat, frontier = self._open_block(
                self._uba, self._uba_frontier)
            latency += open_lat
        else:
            latency = 0.0
        # Resolve the superseded copy only now: the frontier work above may
        # have converted the block holding it (removing its UMT entry).
        old_ppn = self._umt.ppn_at(lpn)
        ppn = frontier * self._pages_per_block + flash.write_ptr[frontier]
        latency += flash.program_page(
            ppn, data, make_oob((lpn, self._seq.next(), PageKind.DATA, False))
        )
        if old_ppn >= 0:
            # The old copy lives in the UBA/CBA: invalidate immediately.
            # (GMT-resident old copies are invalidated lazily at commit.)
            flash.invalidate_page(old_ppn)
        self._umt.set(lpn, ppn)
        if self._ckpt_interval > 0:
            latency += self._periodic_checkpoint()
        return latency

    def ram_bytes(self) -> int:
        """UMT + GTD: the paper's RAM story.

        The UMT is counted by *occupancy* (the entries it holds now), while
        :meth:`repro.ftl.dftl.DftlFTL.ram_bytes` counts DFTL's CMT by
        *capacity*.  At the same 2 304-entry budget on ftlbench's
        ``oltp_steady`` that is 18.4 KiB here (1 945 entries at the peak)
        against 21.2 KiB for DFTL; E9's ``ram_model`` prices both at
        capacity.
        """
        return self._umt.ram_bytes() + self._maps.ram_bytes()

    # ------------------------------------------------------------------
    # Introspection used by benchmarks, analysis and recovery
    # ------------------------------------------------------------------
    @property
    def umt(self) -> UpdateMappingTable:
        return self._umt

    @property
    def mapping_store(self) -> MappingStore:
        return self._maps

    @property
    def uba_blocks(self) -> List[int]:
        return self._uba.snapshot()

    @property
    def cba_blocks(self) -> List[int]:
        return self._cba.snapshot()

    @property
    def dba_blocks(self) -> List[int]:
        return sorted(self._gc.blocks)

    def _restore_blocks(
        self,
        uba: List[int],
        cba: List[int],
        dba: List[int],
        free: List[int],
        maps_state: Dict[str, object],
    ) -> None:
        """Crash recovery's entry point: install the recovered block roles.

        Rotation state is never persisted: the open blocks of each area
        are exactly its non-full members, so every frontier is re-derived
        from the membership lists (oldest first) handed in here.
        """
        self._uba.restore(uba)
        self._cba.restore(cba)
        self._gc.blocks.clear()
        self._gc.blocks.update(dba)
        self._pool.refill(free)
        self._maps.restore(maps_state)
        self._uba_frontier.reset(self._uba)
        self._cba_frontier.reset(self._cba)

    # ------------------------------------------------------------------
    # Frontier management and conversion
    # ------------------------------------------------------------------
    def _map_destination(self, frontier: Frontier) -> Tuple[float, int]:
        """The mapping store's destination policy: never reclaim.

        GMT pages are written from inside conversion and GC, and the
        pool's GC reserve is sized for them, so a dry rotation simply
        takes a pool block; an extra way opens only while the pool holds
        more than the GC threshold, so striping never eats that reserve.
        """
        pbn = frontier.take(self.config.gc_free_threshold)
        if pbn is None:
            pbn = frontier.open()
        return 0.0, pbn

    def _open_block(
        self, area: BlockArea, frontier: Frontier
    ) -> Tuple[float, int]:
        """Open a fresh UBA/CBA block, converting the area's oldest one
        first when it is at capacity; returns (latency, pbn)."""
        latency = 0.0
        if area.is_at_capacity:
            latency = self._convert_oldest(area)
        pbn = frontier.open()
        area.push(pbn)
        return latency, pbn

    def _convert_oldest(self, area: BlockArea) -> float:
        """Convert one of the area's blocks into an ordinary data block.

        FIFO policy converts the oldest block the area's frontier does
        not hold open (over several ways the open blocks fill unevenly, so
        an older one may still have free pages), the oldest when it holds
        every one (a flush); the "cheapest" policy converts the full block
        whose pending UMT entries span the fewest distinct GMT pages
        (fewest read-modify-writes right now).
        """
        if self.config.convert_policy == "cheapest" and len(area) > 1:
            pbn = self._cheapest_convert_victim(area)
            area.remove(pbn)
        else:
            frontier = self._uba_frontier if area is self._uba \
                else self._cba_frontier
            pbn = area.pop_oldest(frontier.open_blocks)
        latency = self._convert_block(pbn)
        self._gc.blocks.add(pbn)
        return latency

    def _cheapest_convert_victim(self, area: BlockArea) -> int:
        """Full block in ``area`` whose commit touches fewest GMT pages."""
        entries = self.entries_per_page
        frontier = area.frontier
        best_pbn = None
        best_cost = None
        for pbn in area:
            if pbn == frontier and len(area) > 1:
                continue  # keep absorbing writes in the frontier
            cost = len({lpn // entries for lpn in self._deferred_lpns(pbn)})
            if best_cost is None or cost < best_cost:
                best_pbn = pbn
                best_cost = cost
        return best_pbn if best_pbn is not None else area.oldest

    def _deferred_lpns(self, pbn: int) -> List[int]:
        """The lpns of the block's pages the UMT points to (the entries its
        conversion commits; a valid page it does not point to was committed
        early by global batching), from one slice of each column."""
        flash = self.flash
        base = pbn * self._pages_per_block
        end = base + flash.write_ptr[pbn]
        # Inline umt.points_to (lpns from OOB are non-negative).
        uppn = self._umt._ppn
        ulen = len(uppn)
        return [
            lpn for ppn, lpn, state in zip(
                range(base, end), flash.oob_lpn[base:end],
                flash.page_states[base:end])
            if state == VALID and lpn < ulen and uppn[lpn] == ppn
        ]

    def _convert_block(self, pbn: int) -> float:
        """Commit a block's deferred mappings to the GMT, in batch.

        No data moves: this is the whole point of LazyFTL.  Cost is one GMT
        page read-modify-write per *distinct GMT page* referenced by the
        block's valid pages.
        """
        self.stats.converts += 1
        # A still-open frontier block can be converted (flush and
        # capacity pressure both do it); drop it from rotation before
        # its pages are committed.
        self._uba_frontier.discard(pbn)
        self._cba_frontier.discard(pbn)
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(None, Cause.CONVERT)
        umt = self._umt
        entries = self.entries_per_page
        lpns = self._deferred_lpns(pbn)
        batched = self.config.global_batching
        # Global batching: a GMT page we are going to rewrite anyway also
        # absorbs every other UMT entry it covers - entries from blocks
        # that have not converted yet, which will later skip them - so
        # each group is its GMT page's whole UMT index.  The commit reads
        # the new ppns from the flat table; the entries go after it.
        groups = (umt.pages_of({lpn // entries for lpn in lpns}) if batched
                  else group_by_tvpn(lpns, entries))
        latency = self._maps.commit(groups, umt._ppn, self._retire_displaced)
        if batched:
            umt.discard_pages(groups)
        else:
            for lpn in lpns:
                umt.discard(lpn)
        if tracer is not None:
            tracer.span_end(
                EventType.CONVERT, ppn=pbn,
                entries=sum(map(len, groups.values())), gmt_pages=len(groups),
            )
        return latency

    def _retire_displaced(self, displaced: List[Tuple[int, int]]) -> None:
        """Retire the data pages one commit run displaced (lazily), in one
        ``invalidate_run`` (which serves a device that takes no runs page
        by page).  The GMT may hold a stale address whose block was erased
        and reused since; the page-identity check (state + kind + OOB lpn)
        makes the invalidation safe in that case."""
        flash = self.flash
        states, kinds, oob_lpn = (flash.page_states, flash.oob_kind,
                                  flash.oob_lpn)
        dead = [old for lpn, old in displaced
                if states[old] == VALID and kinds[old] == _DATA
                and oob_lpn[old] == lpn]
        flash.invalidate_run(dead)

    # ------------------------------------------------------------------
    # Garbage collection (merge-free)
    # ------------------------------------------------------------------
    def _collect_data_block(self, pbn: int) -> float:
        """Relocate a DBA victim's live pages into the cold area (by run,
        through the one driver), their mappings deferred in the UMT."""
        return relocate(
            self.flash, self._cba_frontier, self._live_pages(pbn),
            self._cold_destination, self._seq, self.stats,
            self._umt.set_many, cold=True,
        )

    def _live_pages(self, pbn: int) -> Iterator[int]:
        """The victim's truly-live pages, each judged when the driver
        reaches for it - after every conversion before it.  A gathered
        page stays live until its run is written: no conversion inside a
        run, its lpn is absent from the UMT (or points at it), and no two
        live pages of a victim share an lpn."""
        flash = self.flash
        states = flash.page_states
        oob_lpn = flash.oob_lpn
        invalidate_page = flash.invalidate_page
        uppn = self._umt._ppn  # inline umt.ppn_at: the array grows in place
        base = pbn * self._pages_per_block
        # A victim is never programmed, so its write pointer is fixed.
        for src in range(base, base + flash.write_ptr[pbn]):
            if states[src] != VALID:
                # Never VALID, or invalidated since the pass began: a
                # cold-block conversion triggered earlier in this very pass
                # can commit a UMT entry whose displaced GMT value is this
                # page (deferred invalidation resolving mid-pass).
                continue
            lpn = oob_lpn[src]
            umt_ppn = uppn[lpn] if lpn < len(uppn) else -1
            if umt_ppn >= 0 and umt_ppn != src:
                # Superseded by a later write whose mapping is still in the
                # UMT: the deferred invalidation resolves here, for free.
                invalidate_page(src)
                continue
            yield src

    def _cold_destination(self, frontier: Frontier) -> Tuple[float, int]:
        """GC's destination: the cold frontier, converting the oldest CBA
        block when a new one must open.  Inside GC an extra way may only
        take a block the pool can spare (``take(1)``)."""
        pbn = frontier.take(1)
        if pbn is None:
            return self._open_block(self._cba, frontier)
        return 0.0, pbn

    def background_work(self, budget_us: float) -> float:
        """Idle-time GC: opportunistically refill the free pool.

        Runs GC passes while the pool is below twice the foreground
        threshold and budget remains.  A started pass runs to completion
        (slight budget overrun models a real controller finishing its
        current erase when a request arrives).
        """
        if not self.config.background_gc or budget_us <= 0:
            return 0.0
        soft_threshold = 2 * self.config.gc_free_threshold
        used = 0.0
        while used < budget_us and len(self._pool) <= soft_threshold:
            victim = self._gc.select()
            if victim is None:
                break  # nothing profitably reclaimable right now
            used += self._gc.collect(victim)
        return used

    def _maybe_wear_level(self) -> float:
        """Static wear leveling: recycle the coldest block when the erase
        spread exceeds the configured threshold."""
        counts = self.flash.erase_counts()
        usable = [b for b in range(len(counts)) if b not in ANCHOR_BLOCKS]
        max_wear = max(counts[b] for b in usable)
        coldest = min(
            self._gc.blocks, key=lambda b: (counts[b], b), default=None)
        if coldest is None or \
                max_wear - counts[coldest] <= self.config.wear_threshold:
            return 0.0
        return self._gc.collect(coldest)

    # ------------------------------------------------------------------
    # Flush and checkpointing
    # ------------------------------------------------------------------
    def flush(self) -> float:
        """Convert every UBA/CBA block, committing the whole UMT.

        After a flush the GMT is exact and the UMT empty - the state a
        clean shutdown leaves behind.
        """
        latency = 0.0
        while len(self._uba):
            latency += self._convert_oldest(self._uba)
        while len(self._cba):
            latency += self._convert_oldest(self._cba)
        return latency

    def checkpoint(self) -> float:
        """Persist recovery metadata to the anchor blocks.

        Captures the GTD, area membership and the free list.  The UMT is
        deliberately *not* trusted for recovery (it changes with every
        write); recovery rebuilds it by scanning the UBA/CBA - the paper's
        basic recovery design.
        """
        state = {
            "seq": self._seq.current,
            "maps": self._maps.snapshot(),
            "uba": self._uba.snapshot(),
            "cba": self._cba.snapshot(),
            "dba": self.dba_blocks,
            "free": self._pool.snapshot(),
        }
        self._writes_since_checkpoint = 0
        tracer = self._tracer
        if tracer is not None:
            tracer.push_cause(Cause.RECOVERY)
        try:
            return self._scribe.write(state)
        finally:
            if tracer is not None:
                tracer.pop_cause()

    def _periodic_checkpoint(self) -> float:
        self._writes_since_checkpoint += 1
        if self._writes_since_checkpoint < self._ckpt_interval:
            return 0.0
        return self.checkpoint()
