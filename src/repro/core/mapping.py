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
from ..ftl.stripe import Frontier, stripe_ways
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
        spare: int = 0,
    ):
        self.flash = flash
        self.stats = stats
        self.seq = seq
        self.gtd = GlobalTranslationDirectory(num_tvpns)
        self.entries_per_page = flash.geometry.map_entries_per_page
        self._pages_per_block = flash.geometry.pages_per_block
        self.cache_pages = cache_pages
        self._cache = LruCache(cache_pages)
        self._full_blocks: Set[int] = set()
        #: The MBA's open blocks; full ones retire to ``_full_blocks`` as
        #: the rotation walks over them.  Allocation comes from the
        #: shared pool whose GC reserve is sized for it (no recursive GC
        #: here); an extra way opens only while the pool holds more than
        #: ``spare`` blocks (LazyFTL passes its GC threshold), so
        #: striping never steals the reclaim cushion.
        self._frontier = Frontier(
            flash, pool, stripe_ways(flash.geometry.parallel_units),
            self._full_blocks.add,
        )
        self._spare = spare
        #: Optional tracer, threaded down by LazyFTL.attach_tracer.
        self.tracer = None

    # ------------------------------------------------------------------
    # Membership (for GC candidate enumeration and checkpoints)
    # ------------------------------------------------------------------
    @property
    def full_blocks(self) -> Set[int]:
        """Retired (full) mapping blocks - the MBA's GC candidates."""
        return self._full_blocks

    @property
    def frontier(self) -> Optional[int]:
        """The mapping block the next GMT page write goes to, if open."""
        return self._frontier.peek()

    def all_blocks(self) -> List[int]:
        return sorted(self._full_blocks) + self._frontier.open_blocks

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
        frontier = self._frontier
        spare = self._spare
        load = self.load
        program = self._program
        for tvpn in sorted(groups):
            # Reserve the slot first so the allocation cannot interleave
            # with the content snapshot below.
            if frontier.take(spare) is None:
                frontier.open()
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
        flash = self.flash
        pbn = self._frontier.take(self._spare)
        if pbn is None:
            pbn = self._frontier.open()
        ppn = pbn * self._pages_per_block + flash.write_ptr[pbn]
        latency = flash.program_page(
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
        frontier = self._frontier
        take = frontier.take
        spare = self._spare
        for src in flash.valid_ppns(pbn):
            content, oob, read_lat = read_page(src)
            latency += read_lat
            stats.map_reads += 1
            if tracer is not None:
                tracer.emit(EventType.MAP_READ, lpn=oob.lpn, ppn=src)
            dst_pbn = take(spare)
            if dst_pbn is None:
                dst_pbn = frontier.open()
            dst = dst_pbn * ppb + write_ptr[dst_pbn]
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

        ``frontier`` is the newest open block; the ``open`` key (older
        open blocks) only appears when several are open, so
        serial-device checkpoints never carry it.
        """
        open_blocks = self._frontier.open_blocks
        state: Dict[str, object] = {
            "gtd": self.gtd.snapshot(),
            "full_blocks": sorted(self._full_blocks),
            "frontier": open_blocks[-1] if open_blocks else None,
        }
        if len(open_blocks) > 1:
            state["open"] = open_blocks[:-1]
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Install a :meth:`snapshot` - or, in crash recovery, the same
        fragment rebuilt from the OOB scan."""
        self.gtd.restore(state["gtd"])  # type: ignore[arg-type]
        # In place: the frontier retires blocks through this set's add.
        self._full_blocks.clear()
        self._full_blocks.update(state["full_blocks"])  # type: ignore[arg-type]
        open_blocks = list(state.get("open", ()))  # type: ignore[call-overload]
        if state["frontier"] is not None:
            open_blocks.append(state["frontier"])
        self._frontier.reset(open_blocks)
        self._cache.clear()
