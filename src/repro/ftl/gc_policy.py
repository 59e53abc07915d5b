"""Garbage collection: the victim policy, the one erase step, the driver.

Among data blocks the page-mapping schemes' collector is cost-benefit
(:func:`select_cost_benefit`, Rosenblum & Ousterhout's LFS cleaner): the
block that frees the most pages per page of copy work, weighted by the
time since it was sealed, so a young hot block whose pages are about to
die waits and an old cold one is taken before it is fully valid.  Greedy
(fewest valid pages first, :func:`select_greedy`) stays where emptiness
is all that counts: among translation blocks, on the free pool's last
block, and in the superblock scheme.  Both work on physical block
numbers plus the device's per-block valid-count array
(``flash.valid_count``); the collector keeps candidates in
:class:`~repro.ftl.pool.VictimPool` sets, which answer either rule
without a scan.  *Between* data and translation blocks - the two
flash-map schemes have both - :func:`select_victim` decides.

The page-mapping schemes (LazyFTL, DFTL, ideal) run one collector,
:class:`GarbageCollector`, and differ only in the *relocate callable*
they hand it - each of which, like ``MappingStore.collect``, moves its
victim's pages through the one loop, :func:`repro.ftl.stripe.relocate`.
Every scheme - the block-mapping ones too - erases through
:func:`recycle_block`, so every scheme survives a worn-out block.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..flash.chip import NandFlash
from ..flash.errors import BadBlockError
from ..flash.oob import SequenceCounter
from ..obs.events import Cause, EventType
from .mapping import MappingStore
from .pool import BlockPool, OutOfBlocksError, VictimPool
from .stats import FtlStats


def select_greedy(
    candidates: Iterable[int], valid_count: Sequence[int]
) -> Optional[int]:
    """Candidate pbn with the fewest valid pages (cheapest to reclaim).

    Ties break toward the lower block number, so the result does not
    depend on candidate order; None when there are no candidates.  The
    definition: collectors ask a :class:`~repro.ftl.pool.VictimPool`.
    """
    return min(
        candidates, key=lambda pbn: (valid_count[pbn], pbn), default=None)


def select_cost_benefit(
    candidates: Iterable[int], valid_count: Sequence[int],
    sealed: Callable[[int], int], now: int, ppb: int,
) -> Optional[int]:
    """Candidate pbn with the highest LFS cost-benefit score,
    ``(ppb - v) * (now - sealed(pbn)) / (ppb + v)`` for ``v`` valid pages:
    the pages freed per page read and copied, times the block's age.

    ``sealed(pbn)`` is the OOB seq of the block's last programmed page and
    ``now`` the owner's next one, so ages are positive.  Ties break
    toward fewer valid pages, then the lower block number; None when there
    are no candidates.  A fully-valid block scores 0 and is never chosen
    over one with a page to reclaim.  The definition: collectors ask
    :meth:`~repro.ftl.pool.VictimPool.pick_cost_benefit`.
    """
    def key(pbn: int) -> Tuple[float, int, int]:
        valid = valid_count[pbn]
        return (-((ppb - valid) * (now - sealed(pbn)) / (ppb + valid)),
                valid, pbn)
    return min(candidates, key=key, default=None)


#: A full translation block is the victim only when it is at most 1/4 as
#: valid as the best data block.  Ablation (EXPERIMENTS E17): the old mixed
#: greedy order is 2.14x of ideal on the ftlbench device and 1/4 is 1.56x;
#: 1/2 gives back a sixth of that, 1/8 is within 2 % either way for a third
#: more full translation blocks, "only when empty" is worse everywhere.
MAP_VICTIM_RATIO = 4

Pick = Optional[Tuple[int, int]]


def select_victim(data: Pick, maps: Pick, last_block: bool) -> Optional[int]:
    """The victim among the best data and the best translation block, each
    a ``(valid, pbn)`` pick or None (no member with a page to reclaim).

    Translation pages are the hottest pages on the device: a block of them
    empties itself a few hundred commits later, so collecting it as soon as
    it ties the best data block (~63 % valid in steady state) re-copies
    pages about to die.  It must be ``MAP_VICTIM_RATIO`` times emptier
    than the data pick to win.  Liveness: a data pass with v live pages
    can *consume* ~2v/ppb blocks (the copies and their translation
    rewrites) to free one, so on the pool's ``last_block`` - the
    ``spare = 1`` level GC-time allocation runs at - the plain greedy
    order, the largest immediate reclaim, applies, and the caller hands in
    the greedy data pick.  (Measured instead, E17: a cap on full
    translation blocks starves DFTL at 3x the minimum and costs a sixth of
    the gain at 1.5x; a ``len(pool) < threshold`` guard costs LazyFTL half
    of it.)
    """
    if data is None or maps is None or last_block:
        best = min(filter(None, (data, maps)), default=None)
    else:
        best = maps if MAP_VICTIM_RATIO * maps[0] <= data[0] else data
    return None if best is None else best[1]


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
    """GC over an owner's full data and translation blocks.

    One pass: pick a victim -> refuse a fully-valid one -> open the GC
    span -> relocate -> erase -> release.  ``relocate(pbn) -> latency``
    is the owner's: it moves a *data* victim's live pages and records
    where they went.  A full translation block of ``maps`` (the owner's
    :class:`~repro.ftl.mapping.MappingStore`, if it has one) is a
    candidate too and relocates through ``maps.collect``.
    """

    def __init__(self, flash: NandFlash, pool: BlockPool, stats: FtlStats,
                 seq: SequenceCounter, threshold: int,
                 relocate: Callable[[int], float],
                 maps: Optional[MappingStore] = None):
        self.flash = flash
        self.pool = pool
        self.stats = stats
        #: The owner's counter: ``seq.current`` is the cost-benefit "now".
        self.seq = seq
        #: :meth:`reclaim` runs while the pool holds this many or fewer.
        self.threshold = threshold
        self.relocate = relocate
        self.maps = maps
        #: Full data blocks - the victim pool (LazyFTL's DBA).  Frontiers
        #: retire into it through its bound ``add``: refill it in place.
        self.blocks = VictimPool(flash)
        #: True during a pass; destination policies read it to open an
        #: extra way on ``spare`` = 1 and never to reclaim recursively.
        self.active = False

    def select(self) -> Optional[int]:
        """:func:`select_victim` over both pools' picks - the data pool's
        cost-benefit, greedy on the pool's last block - None if there is
        no candidate or even the best is fully valid (nothing to reclaim)."""
        # Each pick is a total order over its pool (min() within a bucket,
        # ties fixed), so neither the order of ``touched`` nor of a bucket
        # can show.
        touched = self.flash.take_invalidated()
        self.blocks.refresh(touched)
        maps = None
        if self.maps is not None:
            self.maps.full_blocks.refresh(touched)
            maps = self.maps.full_blocks.pick()
        last_block = len(self.pool) <= 1
        data = self.blocks.pick() if last_block \
            else self.blocks.pick_cost_benefit(self.seq.current)
        return select_victim(data, maps, last_block)

    def state(self) -> str:
        """The numbers an ``OutOfBlocksError`` under this collector needs."""
        maps = self.maps and self.maps.full_blocks.describe()
        return (f"free pool {len(self.pool)}, GC threshold {self.threshold}; "
                f"data blocks: {self.blocks.describe()}; "
                f"translation blocks: {maps}")

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
                    "GC found no victim with reclaimable slack (reduce "
                    f"logical_pages or enlarge the device) [{self.state()}]")
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
        except OutOfBlocksError as exc:  # starved, or a mis-sized device?
            raise OutOfBlocksError(f"{exc} [{self.state()}]") from exc
        finally:
            self.active = False
            if tracer is not None:
                tracer.span_end(EventType.GC_END, ppn=victim)
