"""MappingStore: the in-flash Global Mapping Table (GMT) and its MBA blocks.

The GMT is a page-level map stored in dedicated mapping pages: entry ``i``
of GMT page ``t`` holds the physical location of logical page
``t * entries_per_page + i``.  The RAM-resident GTD locates each GMT page.
All GMT updates arrive in *batches* from block conversion - the mechanism
that lets LazyFTL amortise one mapping-page read-modify-write over many
host writes.

An optional bounded RAM cache of GMT page contents (off by default) is
provided for ablation experiments; the paper's base design always reads
GMT pages from flash.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import PageKind, SequenceCounter, make_oob
from ..ftl.pool import BlockPool
from ..ftl.stats import FtlStats
from ..obs.events import Cause, EventType
from ..perf.maptable import LruCache
from .gtd import GlobalTranslationDirectory


class MappingStore:
    """Manages GMT pages, the GTD, and the mapping block area (MBA)."""

    def __init__(
        self,
        flash: NandFlash,
        pool: BlockPool,
        stats: FtlStats,
        seq: SequenceCounter,
        num_tvpns: int,
        cache_pages: int = 0,
    ):
        self.flash = flash
        self.pool = pool
        self.stats = stats
        self.seq = seq
        self.gtd = GlobalTranslationDirectory(num_tvpns)
        self.entries_per_page = flash.geometry.map_entries_per_page
        self._pages_per_block = flash.geometry.pages_per_block
        self.cache_pages = cache_pages
        self._cache = LruCache(cache_pages)
        self._frontier: Optional[int] = None
        self._full_blocks: Set[int] = set()
        #: Optional tracer, threaded down by LazyFTL.attach_tracer.
        self.tracer = None
        #: Optional striped frontier (multi-channel devices only), set by
        #: LazyFTL after construction.  When present, ``_frontier``
        #: always aliases the rotation's current pick, so the program
        #: paths below need no other changes.
        self.stripe = None
        #: Free blocks to keep in reserve before opening *extra* striped
        #: mapping frontiers (the first block is always allocatable, as
        #: before).  Sized to the GC threshold by LazyFTL.
        self.stripe_reserve = 0

    # ------------------------------------------------------------------
    # Membership (for GC candidate enumeration and checkpoints)
    # ------------------------------------------------------------------
    @property
    def full_blocks(self) -> Set[int]:
        """Retired (full) mapping blocks - the MBA's GC candidates."""
        return self._full_blocks

    @property
    def frontier(self) -> Optional[int]:
        return self._frontier

    def all_blocks(self) -> List[int]:
        blocks = sorted(self._full_blocks)
        if self.stripe is not None:
            for pbn in self.stripe.open_blocks:
                if pbn not in self._full_blocks:
                    blocks.append(pbn)
            if self._frontier is not None and \
                    self._frontier not in blocks:
                blocks.append(self._frontier)
        elif self._frontier is not None:
            blocks.append(self._frontier)
        return blocks

    def open_blocks(self) -> List[int]:
        """Every currently-writable mapping block (1 unstriped, else the
        striped rotation)."""
        if self.stripe is not None:
            return list(self.stripe.open_blocks)
        return [] if self._frontier is None else [self._frontier]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_page

    def lookup(self, lpn: int) -> Tuple[Optional[int], float]:
        """Resolve ``lpn`` through the GMT; returns (ppn|None, latency)."""
        tvpn = self.tvpn_of(lpn)
        idx = lpn % self.entries_per_page
        cached = self._cache.get(tvpn)
        if cached is not None:
            return cached[idx], 0.0
        tppn = self.gtd.get(tvpn)
        if tppn is None:
            return None, 0.0
        tracer = self.tracer
        if tracer is not None:
            tracer.push_cause(Cause.MAPPING)
        try:
            content, _, latency = self.flash.read_page(tppn)
        finally:
            if tracer is not None:
                tracer.pop_cause()
                tracer.emit(EventType.MAP_READ, lpn=tvpn, ppn=tppn)
        self.stats.map_reads += 1
        self._cache.put(tvpn, list(content))
        return content[idx], latency

    def load(self, tvpn: int) -> Tuple[List[Optional[int]], float]:
        """Full content of a GMT page (a fresh empty page if absent)."""
        cached = self._cache.get(tvpn)
        if cached is not None:
            return list(cached), 0.0
        tppn = self.gtd.get(tvpn)
        if tppn is None:
            return [None] * self.entries_per_page, 0.0
        content, _, latency = self.flash.read_page(tppn)
        self.stats.map_reads += 1
        if self.tracer is not None:
            self.tracer.emit(EventType.MAP_READ, lpn=tvpn, ppn=tppn)
        return list(content), latency

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def commit(
        self,
        groups: Dict[int, List[Tuple[int, int]]],
        on_superseded: Callable[[int, int], None],
    ) -> float:
        """Apply batched mapping updates, one GMT page write per group.

        Args:
            groups: tvpn -> list of (lpn, new_ppn), as produced by
                :func:`repro.core.umt.group_by_tvpn`.
            on_superseded: Called with ``(lpn, old_ppn)`` for every entry
                whose previous GMT value is displaced - the hook LazyFTL
                uses for its deferred invalidation of old data pages.
        """
        latency = 0.0
        entries_per_page = self.entries_per_page
        stats = self.stats
        ensure_frontier = self._ensure_frontier
        load = self.load
        program = self._program
        for tvpn in sorted(groups):
            # Reserve the slot first so the allocation cannot interleave
            # with the content snapshot below.
            latency += ensure_frontier()
            content, read_lat = load(tvpn)
            latency += read_lat
            group = groups[tvpn]
            for lpn, new_ppn in group:
                idx = lpn % entries_per_page
                old_ppn = content[idx]
                if old_ppn is not None and old_ppn != new_ppn:
                    on_superseded(lpn, old_ppn)
                content[idx] = new_ppn
            stats.batched_commits += len(group)
            latency += program(tvpn, content)
        if self.tracer is not None:
            self.tracer.emit(
                EventType.BATCH_COMMIT,
                entries=sum(len(g) for g in groups.values()),
                gmt_pages=len(groups),
            )
        return latency

    def _program(self, tvpn: int, content: List[Optional[int]]) -> float:
        """Write a new version of GMT page ``tvpn``; update GTD and cache."""
        latency = self._ensure_frontier()
        flash = self.flash
        frontier = self._frontier
        ppn = frontier * self._pages_per_block + flash.write_ptr[frontier]
        latency += flash.program_page(
            ppn,
            content,
            make_oob((tvpn, self.seq.next(), PageKind.MAPPING, False)),
        )
        self.stats.map_writes += 1
        if self.tracer is not None:
            self.tracer.emit(EventType.MAP_WRITE, lpn=tvpn, ppn=ppn)
        old = self.gtd.get(tvpn)
        if old is not None:
            flash.invalidate_page(old)
        self.gtd.set(tvpn, ppn)
        self._cache.put(tvpn, content)
        return latency

    def _ensure_frontier(self) -> float:
        """Keep a writable mapping block; allocation comes from the shared
        pool whose GC reserve is sized for it (no recursive GC here)."""
        stripe = self.stripe
        if stripe is not None:
            # Rotate across the open mapping blocks (full ones retire to
            # _full_blocks as the rotation walks over them); open extra
            # ways only while the pool can spare blocks beyond the GC
            # reserve, so striping never steals the reclaim cushion.
            pbn = stripe.next_slot(self.flash, self._full_blocks.add)
            if pbn is None or (
                len(stripe.open_blocks) < stripe.ways
                and len(self.pool) > self.stripe_reserve
            ):
                pbn = self.pool.allocate_on(
                    stripe.uncovered_unit(), stripe.units
                )
                stripe.note_open(pbn)
            self._frontier = pbn
            return 0.0
        frontier = self._frontier
        if frontier is not None:
            if self.flash.write_ptr[frontier] < self._pages_per_block:
                return 0.0
            self._full_blocks.add(frontier)
        self._frontier = self.pool.allocate()
        return 0.0

    # ------------------------------------------------------------------
    # Garbage collection of mapping blocks
    # ------------------------------------------------------------------
    # flowlint: hot
    def collect(self, pbn: int) -> float:
        """Relocate a victim MBA block's valid GMT pages; caller erases."""
        latency = 0.0
        flash = self.flash
        write_ptr = flash.write_ptr
        read_page = flash.read_page
        program_page = flash.program_page
        invalidate_page = flash.invalidate_page
        seq_next = self.seq.next
        gtd_set = self.gtd.set
        stats = self.stats
        tracer = self.tracer
        ppb = self._pages_per_block
        for src in flash.valid_ppns(pbn):
            content, oob, read_lat = read_page(src)
            latency += read_lat
            stats.map_reads += 1
            if tracer is not None:
                tracer.emit(EventType.MAP_READ, lpn=oob.lpn, ppn=src)
            latency += self._ensure_frontier()
            frontier = self._frontier
            dst = frontier * ppb + write_ptr[frontier]
            latency += program_page(
                dst,
                content,
                make_oob((oob.lpn, seq_next(), PageKind.MAPPING, False)),
            )
            stats.map_writes += 1
            if tracer is not None:
                tracer.emit(EventType.MAP_WRITE, lpn=oob.lpn, ppn=dst)
            stats.gc_page_copies += 1
            gtd_set(oob.lpn, dst)
            invalidate_page(src)
        self._full_blocks.discard(pbn)
        return latency

    # ------------------------------------------------------------------
    # Accounting / persistence
    # ------------------------------------------------------------------
    def ram_bytes(self) -> int:
        cache_bytes = self.cache_pages * self.entries_per_page * MAP_ENTRY_BYTES
        return self.gtd.ram_bytes() + cache_bytes

    def snapshot(self) -> Dict[str, object]:
        """Checkpoint fragment: GTD + MBA membership.

        The ``open`` key (extra striped frontier blocks beyond
        ``frontier``) only appears on multi-channel devices, keeping
        serial-device checkpoints byte-identical to before striping
        existed.
        """
        state: Dict[str, object] = {
            "gtd": self.gtd.snapshot(),
            "full_blocks": sorted(self._full_blocks),
            "frontier": self._frontier,
        }
        if self.stripe is not None:
            extras = [
                pbn for pbn in self.stripe.open_blocks
                if pbn != self._frontier
            ]
            if extras:
                state["open"] = extras
        return state

    def restore(self, state: Dict[str, object]) -> None:
        self.gtd.restore(state["gtd"])  # type: ignore[arg-type]
        self._full_blocks = set(state["full_blocks"])  # type: ignore[arg-type]
        self._frontier = state["frontier"]  # type: ignore[assignment]
        if self.stripe is not None:
            open_blocks = list(state.get("open", ()))  # type: ignore[call-overload]
            if self._frontier is not None:
                open_blocks.append(self._frontier)
            self.stripe.reset(open_blocks)
        self._cache.clear()
