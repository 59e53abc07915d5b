"""The write frontier: the open blocks an area appends to.

Every log-structured area (a page FTL's host and GC destinations, DFTL's
data/GC/translation blocks, LazyFTL's UBA, CBA and mapping-block area)
appends to a :class:`Frontier`.  It keeps up to ``ways`` blocks open -
ideally one per parallel unit - and gives each page to the open block
whose unit of the :class:`~repro.flash.chip.NandFlash` is free soonest
(its busy-until clock, :attr:`~repro.flash.chip.NandFlash.busy_until`),
ties in rotation order.  So bursts of programs (host writes, GC
relocation, GMT commits) spread over the parallel units and overlap, and
a unit busy with a victim's reads or an erase gets fewer of the pass's
copies.  In a host op that has touched no unit yet every clock ties and
the rule is plain round-robin.  There is one implementation for every
geometry: :func:`stripe_ways` is 1 at one parallel unit, where the rule
degenerates to "keep the block until it is full, retire it, open the
next".

The frontier is RAM-side bookkeeping: it reads the device's write
pointers and clocks and takes blocks from the pool but never programs
flash, and it is only *advisory* about placement.
:meth:`Frontier.run_plan` places the pages of a batch as the takes would,
on a copy of the clocks; :func:`relocate`, the one loop every GC pass
moves pages through, batches by it.  Crash recovery does not persist
rotation state; it is rebuilt (:meth:`Frontier.reset`) from the non-full
blocks each area already tracks, because a set of open blocks degenerates
to ordinary partially-written blocks, which every conversion/GC path
already handles.
"""

from __future__ import annotations

from itertools import islice
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from ..flash.chip import NandFlash
from ..flash.oob import PageKind, SequenceCounter
from .pool import BlockPool
from .stats import FtlStats


#: Upper bound on concurrently-open blocks per frontier.  Keeps the
#: extra pool footprint (mapping/translation frontiers allocate beyond
#: their old single block) bounded on very wide geometries.  Measured at
#: 8 channels (EXPERIMENTS E16, ``compare --trace financial1 --requests
#: 25000 --steady``, 1024 blocks): a cap of 8 cuts LazyFTL's mean
#: 257.5 -> 242.2 us and DFTL's 263.0 -> 240.1 us, but raises their
#: erases 688 -> 698 and 729 -> 755 - the open blocks are taken from
#: over-provisioning - so the cap stays at 4.
MAX_STRIPE_WAYS = 4


_INF = float("inf")


def stripe_ways(units: int, capacity: Optional[int] = None) -> int:
    """How many blocks a frontier should keep open on ``units`` units.

    ``capacity`` bounds it for block areas with a fixed budget (keep at
    least one slot of headroom so the area converts full blocks before
    open ones).  Returns 1 when striping is pointless.
    """
    ways = min(units, MAX_STRIPE_WAYS)
    if capacity is not None:
        ways = min(ways, capacity - 1)
    return max(1, ways)


def _ignore(pbn: int) -> None:
    """Default ``on_full``: the owning area already tracks its blocks."""


class Frontier:
    """Up to ``ways`` concurrently-open blocks, each page to the least-busy.

    The rotation holds physical block numbers in open order; a cursor
    marks where the next :meth:`take` starts looking.  Blocks leave it
    when they fill (:meth:`take` evicts the full ones it passes,
    reporting each through ``on_full`` exactly once) or when maintenance
    consumes them early (:meth:`discard` - conversion and GC of a
    still-open block stay legal, exactly as flushing a partial frontier
    always was).

    Callers follow one protocol::

        pbn = frontier.take(spare)
        if pbn is None:
            <reclaim / convert, as the scheme requires>
            pbn = frontier.open()

    ``spare`` is the one rule for opening an *extra* way: only while
    fewer than ``ways`` blocks are open **and** the pool holds more than
    ``spare`` free blocks (the GC threshold on host paths, 1 inside GC),
    so striping never eats the reclaim cushion.  A dry rotation always
    asks for a block, whatever the pool holds.
    """

    __slots__ = ("pool", "units", "ways", "open_blocks", "_cursor",
                 "_write_ptr", "_pages_per_block", "_on_full", "_spare",
                 "_flash", "_busy")

    def __init__(
        self,
        flash: NandFlash,
        pool: BlockPool,
        ways: int,
        on_full: Callable[[int], None] = _ignore,
    ):
        self.pool = pool
        self.units = flash.geometry.channels
        self.ways = ways
        self.open_blocks: List[int] = []
        self._cursor = 0
        self._flash = flash
        self._busy = flash.busy_until
        self._write_ptr = flash.write_ptr
        self._pages_per_block = flash.geometry.pages_per_block
        self._on_full = on_full
        #: The ``spare`` of the last :meth:`take` (:meth:`run_plan`).
        self._spare = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frontier(units={self.units}, ways={self.ways}, "
            f"open={self.open_blocks})"
        )

    def take(self, spare: int) -> Optional[int]:
        """The open block with a free page whose unit is free soonest;
        ties go to the first from the cursor, in rotation order.

        Returns None when the caller should :meth:`open` a block first:
        the rotation is dry, or an extra way may open under the
        ``spare`` rule.  The full blocks the rotation passes before the
        block it picks (every one, when dry) are evicted and handed to
        ``on_full``.  At one way this is "the open block, until full".
        """
        self._spare = spare
        open_blocks = self.open_blocks
        if not open_blocks:
            return None
        way = self._cursor
        if way >= len(open_blocks):
            way = 0
        pbn = open_blocks[way]
        busy = self._busy
        # The block at the cursor is the pick unless it is full or
        # another way's unit is less busy.
        if self._write_ptr[pbn] >= self._pages_per_block or \
                self.ways > 1 and busy[pbn % self.units] > min(busy):
            way = self._least_busy_way(way)
            if way is None:
                return None
            pbn = open_blocks[way]
        self._cursor = way + 1
        if len(open_blocks) < self.ways and len(self.pool) > spare:
            return None
        return pbn

    def _least_busy_way(self, cursor: int) -> Optional[int]:
        """:meth:`take`'s pick from the (non-empty) rotation, by index,
        after evicting the full blocks it passes; None when dry."""
        open_blocks = self.open_blocks
        ways = len(open_blocks)
        write_ptr = self._write_ptr
        ppb = self._pages_per_block
        busy = self._busy
        units = self.units
        # Each way's clock (a full way's is infinite), twice over: the
        # first least-busy way at or after the cursor is one ``index``.
        clock = [busy[pbn % units] if write_ptr[pbn] < ppb else _INF
                 for pbn in open_blocks] * 2
        least = min(clock)
        way = clock.index(least, cursor)
        # The full ways passed on the way there (all of them, when dry).
        stop = way if least < _INF else cursor + ways
        if _INF not in clock[cursor:stop]:
            return way - ways if way >= ways else way
        blocks = open_blocks[:]
        for passed in range(cursor, stop):
            pbn = blocks[passed % ways]
            if write_ptr[pbn] >= ppb:
                open_blocks.remove(pbn)
                self._on_full(pbn)
        if least == _INF:
            self._cursor = 0
            return None
        return open_blocks.index(blocks[way % ways])

    def run_plan(self, held: int, reads: Iterator[int]
                 ) -> Tuple[Sequence[int], List[int]]:
        """Take a *run*: the page bound for ``held`` (the block the last
        :meth:`take` or :meth:`open` named; the page is not yet
        programmed), then a page per item of ``reads`` - the page read
        just before that page's take (negative: none): a copy's source in
        :func:`relocate`, a translation page's old copy in
        :meth:`~repro.ftl.mapping.MappingStore.commit` - placed as that
        :meth:`take` would place it.  Returns the pages and the items
        drawn from ``reads``; the cursor moves as the takes would.

        The takes are replayed on a copy of the unit clocks, charged in
        the order :meth:`~repro.flash.chip.NandFlash.program_run` charges
        them: ``held``'s program, then per page its read, the pick, its
        program.  The run ends where a take would return None (a dry
        rotation, or an extra way under the ``spare`` rule as the last
        :meth:`take` applied it) or evict a full block.  An item is drawn
        only for a page the run may place, so a lazy ``reads`` advances
        no further - except that whether a take evicts can depend on its
        page's read: then that item is drawn and is the last one, with no
        page (the first page of the next run).
        """
        open_blocks = self.open_blocks
        ways = len(open_blocks)
        ppb = self._pages_per_block
        write_ptr = self._write_ptr
        start = held * ppb + write_ptr[held]
        if ways < self.ways and len(self.pool) > self._spare:
            return [start], []
        if ways == 1:  # the rest of the block
            drawn = list(islice(reads, ppb - 1 - write_ptr[held]))
            return range(start, start + 1 + len(drawn)), drawn
        # Per way: its next free page and its block's end.
        nxt = [pbn * ppb + write_ptr[pbn] for pbn in open_blocks]
        nxt[open_blocks.index(held)] += 1
        end = [(pbn + 1) * ppb for pbn in open_blocks]
        # Each way's unit clock, twice over: the first least-busy way at
        # or after the cursor is one ``index`` (past the last way the scan
        # wraps into the second copy).  A unit's charge goes to both
        # slots of every way on it (one way, unless a fallback allocation
        # doubled a unit up); a full way's slots are out of the running.
        units = self.units
        unit_of = [pbn % units for pbn in open_blocks]
        busy = self._busy
        clock = [busy[unit] for unit in unit_of] * 2
        slots: List[Tuple[int, ...]] = [()] * units
        for way, unit in enumerate(unit_of):
            slots[unit] += (way, way + ways)
        on_way = [slots[unit] for unit in unit_of]
        timing = self._flash.timing
        read_us = timing.page_read_us
        program_us = timing.page_program_us
        for slot in slots[held % units]:
            clock[slot] += program_us
        full = [way for way in range(ways) if nxt[way] == end[way]]
        for way in full:
            clock[way] = clock[way + ways] = _INF
        cursor = min(self._cursor, ways)
        index = clock.index
        plan = [start]
        put = plan.append
        drawn: List[int] = []
        draw = drawn.append
        if len(full) < ways:
            for read in reads:
                draw(read)
                if read >= 0:
                    for slot in slots[read // ppb % units]:
                        clock[slot] += read_us
                way = index(min(clock), cursor)
                if full and min(f + ways if f < cursor else f
                                for f in full) < way:
                    break  # the take passes a full block: it evicts
                if way >= ways:
                    way -= ways
                for slot in on_way[way]:
                    clock[slot] += program_us
                page = nxt[way]
                put(page)
                cursor = way + 1
                nxt[way] = page = page + 1
                if page == end[way]:
                    full.append(way)
                    clock[way] = clock[way + ways] = _INF
                    if len(full) == ways:
                        break  # dry
        if len(plan) > 1:
            self._cursor = cursor
        return plan, drawn

    def open(self) -> int:
        """Allocate a block on the least-busy uncovered unit and add it to
        the rotation."""
        pbn = self.pool.allocate_on(self.uncovered_unit(), self.units)
        if pbn in self.open_blocks:
            raise ValueError(f"block {pbn} already open in this frontier")
        self.open_blocks.append(pbn)
        return pbn

    def peek(self) -> Optional[int]:
        """The block :meth:`take` will look at first (it may be full): at
        one way the one it hands out; over several ways, while every
        unit clock ties."""
        open_blocks = self.open_blocks
        if not open_blocks:
            return None
        return open_blocks[self._cursor % len(open_blocks)]

    def discard(self, pbn: int) -> None:
        """Drop a block from the rotation (converted/collected early)."""
        if pbn not in self.open_blocks:  # the common case: no exception
            return
        index = self.open_blocks.index(pbn)
        del self.open_blocks[index]
        if index < self._cursor:
            self._cursor -= 1

    def uncovered_unit(self) -> int:
        """A parallel unit no open block lives on (for the next open).

        Prefers the least-busy uncovered unit, the lowest on a tie (so
        the lowest while every clock is 0); with every unit covered
        (ways > units never happens, but duplicate units can after
        fallback allocations) returns unit 0.
        """
        covered = {pbn % self.units for pbn in self.open_blocks}
        busy = self._busy
        pick = 0
        for unit in range(self.units):
            if unit not in covered and (pick in covered
                                        or busy[unit] < busy[pick]):
                pick = unit
        return pick

    def reset(self, blocks: Iterable[int]) -> None:
        """Rebuild the rotation after restore/recovery.

        Of ``blocks`` (oldest first), the newest ``ways`` with a free
        page reopen; full ones retire through ``on_full`` as
        :meth:`take` would have retired them.
        """
        write_ptr = self._write_ptr
        ppb = self._pages_per_block
        reopened = []
        for pbn in blocks:
            if write_ptr[pbn] < ppb:
                reopened.append(pbn)
            else:
                self._on_full(pbn)
        self.open_blocks = reopened[-self.ways:]
        self._cursor = 0


#: ``destination(frontier) -> (latency, pbn)``: an owner's policy for where
#: the next page goes - a block with a free page, and the time making room.
#: Every policy asks ``frontier.take(spare)`` first, with one ``spare``
#: throughout a run, and when that hands it a block returns ``(0.0, pbn)``
#: and does nothing else - the rule :meth:`Frontier.run_plan` stands on.
Destination = Callable[[Frontier], Tuple[float, int]]


def spare_block(frontier: Frontier) -> Tuple[float, int]:
    """The plain in-GC destination: an open block, else a pool block the
    pool can spare - never a nested reclaim."""
    pbn = frontier.take(1)
    if pbn is None:
        pbn = frontier.open()
    return 0.0, pbn


def relocate(flash: NandFlash, frontier: Frontier, srcs: Iterable[int],
             destination: Destination, seq: SequenceCounter, stats: FtlStats,
             record_run: Callable[[Iterable[Tuple[int, int]]], None],
             kind: PageKind = PageKind.DATA, cold: bool = False) -> float:
    """Move the live pages ``srcs`` into ``frontier``'s blocks (the caller
    erases theirs); returns the simulated time.  The one relocation loop.

    Pages move by *run*: a page is read, then ``destination`` is asked -
    it may convert, reclaim or raise ``OutOfBlocksError`` exactly where it
    always did - and the pages that follow are gathered (a lazy ``srcs``
    only advances there) as far as :meth:`Frontier.run_plan` places them,
    each where a take after its read would: ``destination`` is asked
    *between* runs.  A device that takes no runs
    (:meth:`~repro.flash.chip.NandFlash.takes_runs`) gets one-page runs,
    which its run ops serve with the scalar ops.  A ``MAPPING`` copy is
    also a map read and a map write - the one map write that is a GC copy
    (``map_gc_copies``); the device emits their events.
    """
    latency = 0.0
    more = flash.geometry.pages_per_block if flash.takes_runs() else 0
    page_data = flash.page_data
    oob_lpn = flash.oob_lpn
    read_page = flash.read_page
    mapping = kind is PageKind.MAPPING
    srcs = iter(srcs)
    src = next(srcs, None)
    while src is not None:
        data, read_lat = read_page(src)
        latency += read_lat
        lpn = oob_lpn[src]
        if mapping:
            stats.map_reads += 1
        room_lat, pbn = destination(frontier)
        latency += room_lat
        dsts, drawn = frontier.run_plan(pbn, islice(srcs, more))
        n = len(dsts)
        rest = drawn[:n - 1]
        lpns = [lpn, *map(oob_lpn.__getitem__, rest)]
        latency += flash.program_run(
            dsts, [data, *map(page_data.__getitem__, rest)], lpns,
            seq.take(n), kind, cold, [None, *rest])
        if mapping:
            stats.map_reads += n - 1
            stats.map_writes += n
            stats.map_gc_copies += n
        record_run(zip(lpns, dsts))
        flash.invalidate_run([src, *rest])
        stats.gc_page_copies += n
        # A page drawn past the run is the next run's first.
        src = drawn[-1] if len(drawn) == n else next(srcs, None)
    return latency
