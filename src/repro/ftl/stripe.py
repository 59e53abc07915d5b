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
is only *advisory* about placement.  Crash recovery does not persist
rotation state; it is rebuilt (:meth:`Frontier.reset`) from the non-full
blocks each area already tracks, because a set of open blocks degenerates
to ordinary partially-written blocks, which every conversion/GC path
already handles.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..flash.chip import NandFlash
from .pool import BlockPool

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
                 "_write_ptr", "_pages_per_block", "_on_full")

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
