"""Garbage collection: the victim policy, the one erase step, the driver.

All shipped FTLs use the greedy policy (fewest valid pages first), the
choice of the DFTL/LazyFTL line of work.  It works on physical block
numbers plus the device's per-block valid-count array
(``flash.valid_count``) - all the validity metadata a victim scan needs.

The page-mapping schemes (LazyFTL, DFTL, ideal) run one collector,
:class:`GarbageCollector`, and differ only in the *relocate callable*
they hand it.  Every scheme - the block-mapping ones too - erases through
:func:`recycle_block`, so every scheme survives a worn-out block.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Optional, Sequence, Set

from ..flash.chip import NandFlash
from ..flash.errors import BadBlockError
from ..obs.events import Cause, EventType
from .mapping import MappingStore
from .pool import BlockPool, OutOfBlocksError
from .stats import FtlStats


def select_greedy(
    candidates: Iterable[int], valid_count: Sequence[int]
) -> Optional[int]:
    """Candidate pbn with the fewest valid pages (cheapest to reclaim).

    Ties break toward the lower block number for determinism, so the
    result does not depend on candidate order.  Returns None when there
    are no candidates.  (Kept as a plain loop: a ``min`` with a tuple key
    allocates per candidate and measures ~3x slower on the GC victim
    scan.)
    """
    best: Optional[int] = None
    best_valid = 0
    for pbn in candidates:
        valid = valid_count[pbn]
        if (
            best is None
            or valid < best_valid
            or (valid == best_valid and pbn < best)
        ):
            best = pbn
            best_valid = valid
    return best


def recycle_block(
    flash: NandFlash, pool: BlockPool, stats: FtlStats, pbn: int
) -> float:
    """Erase a block holding nothing live and release it to the pool.

    A block that wears out on this erase is *retired* instead: counted,
    never released.  Nothing is lost (its live pages moved first); the
    device carries on a block smaller until allocation fails with a
    clean :class:`~repro.ftl.pool.OutOfBlocksError`.
    """
    try:
        latency = flash.erase_block(pbn)
    except BadBlockError:
        stats.bad_blocks_retired += 1
        return 0.0
    stats.gc_erases += 1
    pool.release(pbn)
    return latency


class GarbageCollector:
    """Greedy GC over an owner's full data and translation blocks.

    One pass: pick a victim -> refuse a fully-valid one -> open the GC
    span -> relocate -> erase -> release.  ``relocate(pbn) -> latency``
    is the owner's: it moves a *data* victim's live pages and records
    where they went.  A full translation block of ``maps`` (the owner's
    :class:`~repro.ftl.mapping.MappingStore`, if it has one) is a
    candidate too and relocates through ``maps.collect``.
    """

    def __init__(self, flash: NandFlash, pool: BlockPool, stats: FtlStats,
                 threshold: int, relocate: Callable[[int], float],
                 maps: Optional[MappingStore] = None):
        self.flash = flash
        self.pool = pool
        self.stats = stats
        #: :meth:`reclaim` runs while the pool holds this many or fewer.
        self.threshold = threshold
        self.relocate = relocate
        self.maps = maps
        #: Full data blocks - the victim pool (LazyFTL's DBA).  Frontiers
        #: retire into it through its bound ``add``: refill it in place.
        self.blocks: Set[int] = set()
        #: True during a pass; destination policies read it to open an
        #: extra way on ``spare`` = 1 and never to reclaim recursively.
        self.active = False

    def select(self) -> Optional[int]:
        """The greedy victim; None if there is no candidate or even the
        best is fully valid (nothing to reclaim)."""
        valid_count = self.flash.valid_count
        map_blocks = self.maps.full_blocks if self.maps is not None else ()
        # select_greedy's order is total (fewest valid, then lowest
        # pbn), so set iteration order cannot change the victim.
        victim = select_greedy(chain(self.blocks, map_blocks), valid_count)
        if victim is not None and \
                valid_count[victim] < self.flash.geometry.pages_per_block:
            return victim
        return None

    def reclaim(self) -> float:
        """Collect until the pool is back above ``threshold``."""
        latency = 0.0
        while len(self.pool) <= self.threshold:
            latency += self.collect()
        return latency

    def collect(self, victim: Optional[int] = None) -> float:
        """Run one pass; a ``victim`` named by the caller (wear
        levelling's coldest block) is taken as is, fully valid or not."""
        if victim is None:
            victim = self.select()
            if victim is None:
                raise OutOfBlocksError(
                    "GC found no victim with reclaimable slack "
                    "(reduce logical_pages or enlarge the device)"
                )
        self.stats.gc_runs += 1
        tracer = self.flash.tracer
        if tracer is not None:
            tracer.span_start(EventType.GC_START, Cause.GC, ppn=victim)
        self.active = True
        try:
            if self.maps is not None and victim in self.maps.full_blocks:
                latency = self.maps.collect(victim)
            else:
                latency = self.relocate(victim)
                self.blocks.discard(victim)
            return latency + recycle_block(
                self.flash, self.pool, self.stats, victim)
        finally:
            self.active = False
            if tracer is not None:
                tracer.span_end(EventType.GC_END, ppn=victim)
