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
is only *advisory* about placement.  :meth:`Frontier.run_limit` says how
far a caller may batch; :func:`relocate`, the one loop every GC pass moves
pages through, batches by it.  Crash recovery does not persist
rotation state; it is rebuilt (:meth:`Frontier.reset`) from the non-full
blocks each area already tracks, because a set of open blocks degenerates
to ordinary partially-written blocks, which every conversion/GC path
already handles.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.oob import PageKind, SequenceCounter, make_oob, run_oobs
from ..obs.events import EventType
from .pool import BlockPool
from .stats import FtlStats

_LPN = attrgetter("lpn")

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
                 "_write_ptr", "_pages_per_block", "_on_full",
                 "_device_takes_runs")

    def __init__(
        self,
        flash: NandFlash,
        pool: BlockPool,
        ways: int,
        on_full: Callable[[int], None] = _ignore,
    ):
        self.pool = pool
        self.units = flash.geometry.parallel_units
        self.ways = ways
        self.open_blocks: List[int] = []
        self._cursor = 0
        self._write_ptr = flash.write_ptr
        self._pages_per_block = flash.geometry.pages_per_block
        self._on_full = on_full
        self._device_takes_runs = flash.takes_runs

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

    def run_limit(self) -> int:
        """Most pages one *run* may put into a block :meth:`take` names: a
        whole block (callers clip it to the free pages) when the rotation
        is one way and :meth:`~repro.flash.chip.NandFlash.takes_runs`, else
        1.  Ask once per pass, never keep it: tracers attach and faults arm
        in between."""
        if self.ways == 1 and self._device_takes_runs():
            return self._pages_per_block
        return 1

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
        try:
            index = self.open_blocks.index(pbn)
        except ValueError:
            return
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
             record: Callable[[int, int], None],
             record_run: Callable[[Iterable[Tuple[int, int]]], None],
             kind: PageKind = PageKind.DATA, cold: bool = False) -> float:
    """Move the live pages ``srcs`` into ``frontier``'s blocks (the caller
    erases theirs); returns the simulated time.  The one relocation loop.

    Pages move by *run*: the live pages that fit the block ``destination``
    just named, ``frontier.run_limit()`` at most.  A run's first page is
    read before ``destination`` is asked - it may convert, reclaim or
    raise ``OutOfBlocksError`` exactly where it always did - and the rest
    is gathered after (a lazy ``srcs`` only advances there), so nothing
    ``destination`` does can touch a gathered page: it is asked *between*
    runs.  A ``MAPPING`` copy is also a map read and a map write - the one
    map write that is a GC copy (``map_gc_copies``), not a commit.
    """
    latency = 0.0
    limit = frontier.run_limit()
    write_ptr = flash.write_ptr
    read_page = flash.read_page
    program_page = flash.program_page
    invalidate_page = flash.invalidate_page
    seq_next = seq.next
    ppb = flash.geometry.pages_per_block
    mapping = kind is PageKind.MAPPING
    tracer = flash.tracer if mapping else None
    srcs = iter(srcs)
    for src in srcs:
        data, oob, read_lat = read_page(src)
        latency += read_lat
        lpn = oob.lpn
        if mapping:
            stats.map_reads += 1
            if tracer is not None:
                tracer.emit(EventType.MAP_READ, lpn=lpn, ppn=src)
        room_lat, pbn = destination(frontier)
        latency += room_lat
        offset = write_ptr[pbn]
        dst = pbn * ppb + offset
        if limit == 1:
            # Striped, traced, fault-armed, sanitized, fractional timing:
            # the scalar ops (a striped replay is a fifth slower through
            # the lists below).
            latency += program_page(
                dst, data, make_oob((lpn, seq_next(), kind, cold)))
            if mapping:
                stats.map_writes += 1
                stats.map_gc_copies += 1
                if tracer is not None:
                    tracer.emit(EventType.MAP_WRITE, lpn=lpn, ppn=dst)
            record(lpn, dst)
            invalidate_page(src)
            stats.gc_page_copies += 1
            continue
        # One run (these lists *are* the run, one per destination block):
        # gather, read, program, record and invalidate in bulk.
        rest = list(islice(srcs, min(limit, ppb - offset) - 1))
        datas, oobs, read_lat = flash.read_run(rest)
        lpns = [lpn, *map(_LPN, oobs)]
        n = len(lpns)
        latency += read_lat + flash.program_run(
            dst, [data, *datas], run_oobs(lpns, seq.take(n), kind, cold))
        if mapping:
            stats.map_reads += n - 1
            stats.map_writes += n
            stats.map_gc_copies += n
        record_run(zip(lpns, range(dst, dst + n)))
        flash.invalidate_run([src, *rest])
        stats.gc_page_copies += n
    return latency
