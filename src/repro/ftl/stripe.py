"""Striped frontier rotation for multi-channel devices.

On a parallel device (:class:`~repro.flash.parallel.ParallelNandFlash`)
a single open frontier block serializes every program behind one
channel/die queue.  :class:`StripedFrontier` lets an FTL keep up to
``ways`` blocks open concurrently - ideally one per parallel unit - and
rotate page allocations round-robin across them, so bursts of programs
(host writes, GC relocation, GMT commits) land on different units and
overlap.

The helper is pure RAM-side bookkeeping: it never touches flash and is
only *advisory* about placement.  FTLs instantiate it exclusively when
``geometry.parallel_units > 1``, so serial (1x1x1) devices execute the
pre-existing single-frontier code paths untouched - bit-identical by
construction.  Crash recovery does not persist rotation state; it is
rebuilt (or simply restarted empty) from the non-full blocks each area
already tracks, because a striped frontier set degenerates to ordinary
partially-written blocks, which every conversion/GC path already
handles.
"""

from __future__ import annotations

from typing import Callable, List, Optional

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


class StripedFrontier:
    """Round-robin rotation over up to ``ways`` concurrently-open blocks.

    The rotation holds physical block numbers in open order.  Blocks
    leave the rotation when they fill (``next_slot`` evicts them,
    reporting each through ``on_full``) or when maintenance consumes
    them early (:meth:`discard` - conversion and GC of a still-open
    block stay legal, exactly as flushing a partial frontier always
    was).
    """

    __slots__ = ("units", "ways", "open_blocks", "_cursor")

    def __init__(self, units: int, ways: int):
        if units < 2:
            raise ValueError("striping needs at least 2 parallel units")
        self.units = units
        self.ways = max(1, ways)
        self.open_blocks: List[int] = []
        self._cursor = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StripedFrontier(units={self.units}, ways={self.ways}, "
            f"open={self.open_blocks})"
        )

    def next_slot(
        self,
        flash,
        on_full: Optional[Callable[[int], None]] = None,
    ) -> Optional[int]:
        """Next open block with a free page, rotating; None when dry.

        Full blocks encountered while rotating are evicted from the
        rotation (and handed to ``on_full``, e.g. the mapping store's
        retired set); the caller opens replacements.
        """
        open_blocks = self.open_blocks
        write_ptr = flash.write_ptr
        ppb = flash.geometry.pages_per_block
        while open_blocks:
            if self._cursor >= len(open_blocks):
                self._cursor = 0
            pbn = open_blocks[self._cursor]
            if write_ptr[pbn] < ppb:
                self._cursor += 1
                return pbn
            open_blocks.pop(self._cursor)
            if on_full is not None:
                on_full(pbn)
        return None

    def note_open(self, pbn: int) -> None:
        """Add a freshly-allocated block to the rotation."""
        if pbn in self.open_blocks:
            raise ValueError(f"block {pbn} already open in this frontier")
        self.open_blocks.append(pbn)

    def discard(self, pbn: int) -> None:
        """Drop a block from the rotation (converted/collected early)."""
        try:
            index = self.open_blocks.index(pbn)
        except ValueError:
            return
        self.open_blocks.pop(index)
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

    def reset(self, open_blocks: List[int]) -> None:
        """Rebuild the rotation after restore/recovery."""
        self.open_blocks = list(open_blocks[-self.ways:])
        self._cursor = 0
