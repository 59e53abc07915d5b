"""MappingStore: the flash-resident page table both flash-map schemes share.

The page-level map lives in dedicated *translation pages* (LazyFTL's GMT
pages): entry ``i`` of translation page ``t`` holds the physical location
of logical page ``t * entries_per_page + i``.  A small RAM directory, the
GTD, locates the current flash copy of each translation page, and the
pages are appended to the store's own blocks (LazyFTL's mapping block
area), which the owner garbage-collects through :meth:`collect`.

DFTL and LazyFTL differ in *when* entries reach this table - DFTL on CMT
eviction and GC, LazyFTL in batches at block conversion
(:meth:`MappingStore.commit`) - and in where the next translation page may
go.  That second difference is the one thing an owner supplies: a
*destination policy* ``destination(frontier) -> (latency, pbn)`` that
returns an open block with a free page and the simulated time spent
making room for it.  LazyFTL's never reclaims (its pool's GC reserve is
sized for the mapping blocks); DFTL's may run GC first.

No translation page is held in RAM: every lookup reads it from flash, as
in the paper.  A translation page's payload is an ``array('q')`` of
``entries_per_page`` entries, :data:`~repro.perf.maptable.UNMAPPED` (-1)
marking an unmapped one.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import (Callable, Collection, DefaultDict, Dict, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.oob import PageKind, SequenceCounter, make_oob
from ..obs.events import Cause, EventType
from ..perf.maptable import UNMAPPED, MapTable
from .pool import BlockPool, VictimPool
from .stats import FtlStats
from .stripe import Destination, Frontier, relocate, stripe_ways


class GlobalTranslationDirectory(MapTable):
    """The GTD: one RAM entry per translation page, locating its current
    flash copy.

    An entry of None means the translation page has never been written:
    every logical page it covers is unmapped.  With 2 KiB pages each
    translation page covers 512 logical pages, so the directory is ~1/512
    the size of a full page map - the small RAM structure that makes an
    in-flash mapping affordable.  It *is* a flat
    :class:`~repro.perf.maptable.MapTable` (sentinel -1), so probes on
    the translation hot path are one call, or none through ``raw``.
    """

    __slots__ = ()

    def __init__(self, num_tvpns: int):
        if num_tvpns <= 0:
            raise ValueError("num_tvpns must be positive")
        super().__init__(num_tvpns)

    #: ``gtd.set(tvpn, ppn)``: the table's own item store under the name
    #: the directory's callers know it by.
    set = MapTable.__setitem__
    #: How many translation pages exist on flash.
    materialized = MapTable.mapped_count

    def ram_bytes(self) -> int:
        """4 bytes per directory entry, the paper's convention."""
        return len(self.raw) * MAP_ENTRY_BYTES


class LpnsByPage:
    """lpns grouped by the translation page that holds their entry.

    Both schemes rewrite a translation page with every pending entry it
    covers, so both keep this index: the UMT over all its entries, DFTL
    over its dirty CMT entries.  Simulator bookkeeping, not modelled RAM.
    """

    def __init__(self, entries_per_page: int):
        self.entries_per_page = entries_per_page
        #: tvpn -> its lpns; a page with none left is dropped.  File with
        #: ``pages[tvpn].add(lpn)``; read with ``get`` / ``pop`` only.
        self.pages: DefaultDict[int, Set[int]] = defaultdict(set)

    def add(self, lpn: int) -> None:
        self.pages[lpn // self.entries_per_page].add(lpn)

    def discard(self, lpn: int) -> None:
        tvpn = lpn // self.entries_per_page
        peers = self.pages.get(tvpn)
        if peers is not None:
            peers.discard(lpn)
            if not peers:
                del self.pages[tvpn]


class MappingStore:
    """Translation pages, the GTD that locates them, and their blocks."""

    def __init__(
        self,
        flash: NandFlash,
        pool: BlockPool,
        stats: FtlStats,
        seq: SequenceCounter,
        num_tvpns: int,
        destination: Destination,
    ):
        self.flash = flash
        self.stats = stats
        self.seq = seq
        self.gtd = GlobalTranslationDirectory(num_tvpns)
        self.entries_per_page = flash.geometry.map_entries_per_page
        self._pages_per_block = flash.geometry.pages_per_block
        #: Retired (full) translation blocks - the store's GC candidates.
        self.full_blocks = VictimPool(flash)
        #: The store's open blocks; full ones retire to ``full_blocks``
        #: as the rotation walks over them.  Every page allocation goes
        #: through ``_destination``, so the owner alone decides when an
        #: extra way may open and whether room is made by reclaiming.
        self._frontier = Frontier(
            flash, pool, stripe_ways(flash.geometry.channels),
            self.full_blocks.add,
        )
        self._destination = destination

    # ------------------------------------------------------------------
    # Membership (for GC candidate enumeration and checkpoints)
    # ------------------------------------------------------------------
    @property
    def frontier(self) -> Optional[int]:
        """The block the next translation page write goes to, if open."""
        return self._frontier.peek()

    def all_blocks(self) -> List[int]:
        return sorted(self.full_blocks) + self._frontier.open_blocks

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_page

    def _read(self, tvpn: int) -> Tuple[Optional["array[int]"], float]:
        """The one flash read of a translation page: ``(content, latency)``
        without copying, ``(None, 0.0)`` if the page was never written.

        The device's events (``PageRead``, then ``MapRead``) carry the
        caller's cause: a host lookup scopes it to ``mapping``, commits
        and GC keep their own.
        """
        tppn = self.gtd.raw[tvpn]
        if tppn < 0:
            return None, 0.0
        content, latency = self.flash.read_page(tppn)
        self.stats.map_reads += 1
        return content, latency

    def fetch(self, tvpn: int) -> Tuple[Optional["array[int]"], float]:
        """What a host lookup reads: translation page ``tvpn`` from flash
        under the ``mapping`` cause; shared, not copied - ``(None, 0.0)``
        if never written."""
        tracer = self.flash.tracer
        if tracer is not None:
            tracer.push_cause(Cause.MAPPING)
        try:
            return self._read(tvpn)
        finally:
            if tracer is not None:
                tracer.pop_cause()

    def lookup(self, lpn: int) -> Tuple[Optional[int], float]:
        """Resolve ``lpn`` through the table; returns (ppn|None, latency)."""
        entries = self.entries_per_page
        content, latency = self.fetch(lpn // entries)
        if content is None:
            return None, 0.0
        ppn = content[lpn % entries]
        return (ppn if ppn >= 0 else None), latency

    def _empty_page(self) -> "array[int]":
        """The content of a translation page never written: all unmapped."""
        return array("q", (UNMAPPED,)) * self.entries_per_page

    def load(self, tvpn: int) -> Tuple["array[int]", float]:
        """An editable copy of a translation page (empty if absent)."""
        content, latency = self._read(tvpn)
        if content is None:
            return self._empty_page(), 0.0
        return content[:], latency

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def checkout(self, tvpn: int) -> Tuple["array[int]", float]:
        """Reserve room for a rewrite of ``tvpn``, then :meth:`load` it.

        In that order: a reclaiming destination policy can run GC, and GC
        can rewrite this very page, so content snapshotted before the
        reservation would clobber GC's update when it is programmed.
        Outside GC, DFTL's every read-modify-write starts here and ends in
        :meth:`program`; :meth:`commit` loads first and loads again when
        the reservation moved the page.
        """
        latency, _ = self._destination(self._frontier)
        content, read_lat = self.load(tvpn)
        return content, latency + read_lat

    def commit(
        self,
        groups: Mapping[int, Collection[int]],
        new_ppn: Sequence[int],
        on_displaced: Callable[[List[Tuple[int, int]]], None],
    ) -> float:
        """Apply batched mapping updates, one page write per group.

        The sorted groups go out by *run* (as pages do in
        :func:`~repro.ftl.stripe.relocate`): a page's :meth:`load` of its
        old copy, then one ask of the destination - so the place of a
        page is chosen knowing which unit its old copy kept busy - then
        the pages :meth:`~repro.ftl.stripe.Frontier.run_plan` places after
        it, each where an ask after its own load would, in one
        :meth:`_commit_run`.  A device that takes no runs gets one-page
        runs.  A destination that reclaims may move the very page loaded
        (GC rewrites the translation pages of what it moves); then the
        page is loaded again, so the commit never clobbers the move
        (:meth:`checkout` reserves first instead).

        Args:
            groups: tvpn -> the lpns it commits (each once, any order).
            new_ppn: lpn -> its new ppn (LazyFTL's flat UMT column).
            on_displaced: Called after each run's program with the run's
                displaced ``(lpn, old_ppn)`` pairs, if any - LazyFTL's
                deferred invalidation of the old data pages.
        """
        latency = 0.0
        tvpns = sorted(groups)
        frontier = self._frontier
        destination = self._destination
        runs = self.flash.takes_runs()
        old_copy = self.gtd.raw.__getitem__
        done = 0
        while done < len(tvpns):
            tvpn = tvpns[done]
            content, read_lat = self.load(tvpn)
            copy = old_copy(tvpn)
            room_lat, pbn = destination(frontier)
            if old_copy(tvpn) != copy:  # making room moved this very page
                content, reread = self.load(tvpn)
                read_lat += reread
            later = tvpns[done + 1:] if runs else ()
            plan, _ = frontier.run_plan(pbn, map(old_copy, later))
            latency += read_lat + room_lat
            run = tvpns[done:done + len(plan)]
            latency += self._commit_run(
                run, plan, content, groups, new_ppn, on_displaced)
            done += len(run)
        tracer = self.flash.tracer
        if tracer is not None:
            tracer.emit(
                EventType.BATCH_COMMIT,
                entries=sum(len(g) for g in groups.values()),
                gmt_pages=len(groups),
            )
        return latency

    def _commit_run(self, run, dsts, first, groups, new_ppn,
                    on_displaced) -> float:
        """Rewrite the translation pages ``run``, their commit groups
        applied, to the pages ``dsts`` (free, as planned).  ``first`` is
        the loaded content of ``run[0]``; each later page's read of its old
        copy, if any, is charged just before its program."""
        flash = self.flash
        entries_per_page = self.entries_per_page
        gtd = self.gtd.raw
        page_data = flash.page_data
        old = [gtd[tvpn] for tvpn in run]
        stale = [tppn for tppn in old if tppn >= 0]
        # A page never written is not read and starts empty.
        reads = [None, *[tppn if tppn >= 0 else None for tppn in old[1:]]]
        contents = [first, *[page_data[tppn][:] if tppn >= 0
                             else self._empty_page() for tppn in old[1:]]]
        displaced: List[Tuple[int, int]] = []
        for tvpn, content in zip(run, contents):
            base = tvpn * entries_per_page
            for lpn in groups[tvpn]:
                ppn = new_ppn[lpn]
                old_ppn = content[lpn - base]
                if old_ppn >= 0 and old_ppn != ppn:
                    displaced.append((lpn, old_ppn))
                content[lpn - base] = ppn
        n = len(run)
        stats = self.stats
        stats.batched_commits += sum(map(len, map(groups.__getitem__, run)))
        stats.map_reads += len(stale) - (old[0] >= 0)
        latency = flash.program_run(dsts, contents, run, self.seq.take(n),
                                    PageKind.MAPPING, False, reads)
        stats.map_writes += n
        flash.invalidate_run(stale)
        self.gtd.set_many(zip(run, dsts))
        if displaced:
            on_displaced(displaced)
        return latency

    def program(self, tvpn: int, content: "array[int]") -> float:
        """Write a new version of page ``tvpn``; update the GTD."""
        flash = self.flash
        latency, pbn = self._destination(self._frontier)
        ppn = pbn * self._pages_per_block + flash.write_ptr[pbn]
        latency += flash.program_page(
            ppn,
            content,
            make_oob((tvpn, self.seq.next(), PageKind.MAPPING, False)),
        )
        self.stats.map_writes += 1
        old = self.gtd.get(tvpn)
        if old is not None:
            flash.invalidate_page(old)
        self.gtd.set(tvpn, ppn)
        return latency

    # ------------------------------------------------------------------
    # Garbage collection of translation blocks
    # ------------------------------------------------------------------
    def collect(self, pbn: int) -> float:
        """Relocate a victim block's valid translation pages (by run,
        through the one driver); the caller erases it."""
        latency = relocate(
            self.flash, self._frontier, self.flash.valid_ppns(pbn),
            self._destination, self.seq, self.stats, self.gtd.set_many,
            PageKind.MAPPING,
        )
        self.full_blocks.discard(pbn)
        return latency

    # ------------------------------------------------------------------
    # Accounting / persistence
    # ------------------------------------------------------------------
    def ram_bytes(self) -> int:
        return self.gtd.ram_bytes()

    def snapshot(self) -> Dict[str, object]:
        """Checkpoint fragment: GTD + block membership.

        ``frontier`` is the newest open block; the ``open`` key (older
        open blocks) only appears when several are open, so
        serial-device checkpoints never carry it.
        """
        open_blocks = self._frontier.open_blocks
        state: Dict[str, object] = {
            "gtd": self.gtd.snapshot(),
            "full_blocks": sorted(self.full_blocks),
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
        self.full_blocks.clear()
        self.full_blocks.update(state["full_blocks"])  # type: ignore[arg-type]
        open_blocks = list(state.get("open", ()))  # type: ignore[call-overload]
        if state["frontier"] is not None:
            open_blocks.append(state["frontier"])
        self._frontier.reset(open_blocks)
