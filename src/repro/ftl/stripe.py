"""The write frontier: the open blocks an area appends to.

Every log-structured area (a page FTL's host and GC destinations, DFTL's
data/GC/translation blocks, LazyFTL's UBA, CBA and mapping-block area)
appends to a :class:`Frontier`.  It keeps up to ``ways`` blocks open -
ideally one per parallel unit - and rotates page allocations round-robin
across them, so bursts of programs (host writes, GC relocation, GMT
commits) land on different parallel units of the
:class:`~repro.flash.chip.NandFlash` and overlap.  There is
one implementation for every geometry: :func:`stripe_ways` is 1 at one
parallel unit, where the rotation degenerates to "keep the block until
it is full, retire it, open the next".

The frontier is RAM-side bookkeeping: it reads the device's write
pointers and takes blocks from the pool but never programs flash, and it
is only *advisory* about placement.  :meth:`Frontier.run_plan` says where
the pages of a batch would go; :func:`relocate`, the one loop every GC
pass moves pages through, batches by it.  Crash recovery does not persist
rotation state; it is rebuilt (:meth:`Frontier.reset`) from the non-full
blocks each area already tracks, because a set of open blocks degenerates
to ordinary partially-written blocks, which every conversion/GC path
already handles.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..flash.chip import NandFlash
from ..flash.oob import PageKind, SequenceCounter
from .pool import BlockPool
from .stats import FtlStats


#: Upper bound on concurrently-open blocks per frontier.  Keeps the
#: extra pool footprint (mapping/translation frontiers allocate beyond
#: their old single block) bounded on very wide geometries; four ways
#: already captures most of the overlap win for program bursts.
MAX_STRIPE_WAYS = 4


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
    """Round-robin rotation over up to ``ways`` concurrently-open blocks.

    The rotation holds physical block numbers in open order.  Blocks
    leave it when they fill (:meth:`take` evicts them, reporting each
    through ``on_full`` exactly once) or when maintenance consumes them
    early (:meth:`discard` - conversion and GC of a still-open block
    stay legal, exactly as flushing a partial frontier always was).

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
                 "_write_ptr", "_pages_per_block", "_on_full", "_spare")

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
        """Next open block with a free page, rotating.

        Returns None when the caller should :meth:`open` a block first:
        the rotation is dry, or an extra way may open under the
        ``spare`` rule.  Full blocks met while rotating are evicted and
        handed to ``on_full``.
        """
        open_blocks = self.open_blocks
        write_ptr = self._write_ptr
        self._spare = spare
        while open_blocks:
            cursor = self._cursor
            if cursor >= len(open_blocks):
                cursor = 0
            pbn = open_blocks[cursor]
            if write_ptr[pbn] < self._pages_per_block:
                self._cursor = cursor + 1
                if len(open_blocks) < self.ways and len(self.pool) > spare:
                    return None
                return pbn
            self._cursor = cursor
            del open_blocks[cursor]
            self._on_full(pbn)
        return None

    def run_plan(self, held: int, k: int, asks: int = 1) -> Sequence[int]:
        """The pages of a *run*: the one bound for ``held`` (the block the
        last ask named; the page is not yet programmed), then where up to
        ``k`` more would go at ``asks`` :meth:`take` calls a page, the last
        naming its block.

        It stops at the first page one of whose takes would evict a full
        block or return None (a dry rotation, or an extra way under the
        ``spare`` rule as the last :meth:`take` applied it).  Pure:
        :meth:`advance` then moves the cursor for the pages used.
        """
        open_blocks = self.open_blocks
        ways = len(open_blocks)
        ppb = self._pages_per_block
        write_ptr = self._write_ptr
        start = held * ppb + write_ptr[held]
        if ways < self.ways and len(self.pool) > self._spare:
            return [start]
        if ways == 1:  # the rest of the block
            return range(start, start + 1 + min(k, ppb - 1 - write_ptr[held]))
        free = [ppb - write_ptr[pbn] for pbn in open_blocks]
        free[open_blocks.index(held)] -= 1
        plan = [start] * (k + 1)
        cursor = self._cursor
        page = ask = 0
        while page < k:  # take() on a copy of the rotation, ask by ask
            if cursor >= ways:
                cursor = 0
            if not free[cursor]:
                break
            cursor += 1
            ask += 1
            if ask == asks:
                ask = 0
                page += 1
                free[cursor - 1] -= 1
                plan[page] = (open_blocks[cursor - 1] + 1) * ppb \
                    - free[cursor - 1] - 1
        return plan[:page + 1]

    def advance(self, pages: int, asks: int = 1) -> None:
        """Move the cursor as the asks of ``pages`` pages of a
        :meth:`run_plan` would have."""
        if pages:
            ways = len(self.open_blocks)
            cursor = self._cursor if self._cursor < ways else 0
            self._cursor = (cursor + pages * asks - 1) % ways + 1

    def open(self) -> int:
        """Allocate a block on an uncovered unit and add it to the rotation."""
        pbn = self.pool.allocate_on(self.uncovered_unit(), self.units)
        if pbn in self.open_blocks:
            raise ValueError(f"block {pbn} already open in this frontier")
        self.open_blocks.append(pbn)
        return pbn

    def peek(self) -> Optional[int]:
        """The block :meth:`take` will look at first (it may be full)."""
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

        Prefers the lowest uncovered unit; with every unit covered
        (ways > units never happens, but duplicate units can after
        fallback allocations) returns unit 0.
        """
        covered = {pbn % self.units for pbn in self.open_blocks}
        for unit in range(self.units):
            if unit not in covered:
                return unit
        return 0

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
    only advances there) as far as :meth:`Frontier.run_plan` places them:
    ``destination`` is asked *between* runs.  A device that takes no runs
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
    for src in srcs:
        data, read_lat = read_page(src)
        latency += read_lat
        lpn = oob_lpn[src]
        if mapping:
            stats.map_reads += 1
        room_lat, pbn = destination(frontier)
        latency += room_lat
        plan = frontier.run_plan(pbn, more)
        rest = list(islice(srcs, len(plan) - 1))
        frontier.advance(len(rest))
        n = len(rest) + 1
        dsts = plan[:n]
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
    return latency
