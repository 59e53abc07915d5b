"""Block pools: the free blocks every FTL allocates from, and the full
blocks a garbage collector picks its victims from."""

from __future__ import annotations

from collections import deque
from collections.abc import MutableSet
from itertools import compress
from typing import (
    Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple)

from ..flash.chip import NandFlash
from ..flash.errors import FlashError


class OutOfBlocksError(FlashError):
    """The free pool is empty and the caller could not reclaim space.

    Reaching this means garbage collection was unable to keep up - usually
    a configuration error (logical space too close to physical capacity).
    """


class BlockPool:
    """FIFO pool of free (erased) physical blocks.

    FIFO order doubles as crude dynamic wear leveling: freed blocks go to
    the back, so allocation naturally rotates over the whole device instead
    of ping-ponging on recently-erased blocks.
    """

    def __init__(self, blocks: Iterable[int]):
        self.refill(blocks)

    @classmethod
    def for_device(
        cls, flash: NandFlash, reserved: Sequence[int] = ()
    ) -> "BlockPool":
        """Every usable block of a fresh device in block order: neither
        factory-bad nor ``reserved`` (LazyFTL's checkpoint anchors)."""
        return cls(
            b for b in range(flash.geometry.num_blocks)
            if not flash.is_bad[b] and b not in reserved
        )

    def refill(self, blocks: Iterable[int]) -> None:
        """Replace the contents in place (crash recovery), so every
        frontier and store sharing this pool sees the recovered list."""
        self._free: Deque[int] = deque(blocks)
        self._members = set(self._free)
        if len(self._members) != len(self._free):
            raise ValueError("duplicate blocks in pool")

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, pbn: int) -> bool:
        return pbn in self._members

    def allocate(self) -> int:
        """Pop the least-recently-freed block; raises when empty."""
        if not self._free:
            raise OutOfBlocksError(
                "free block pool exhausted - GC failed to reclaim space"
            )
        pbn = self._free.popleft()
        self._members.discard(pbn)
        return pbn

    def release(self, pbn: int) -> None:
        """Return an erased block to the pool."""
        if pbn in self._members:
            raise ValueError(f"block {pbn} already in the free pool")
        self._free.append(pbn)
        self._members.add(pbn)

    def peek(self) -> Optional[int]:
        """The block the next :meth:`allocate` would return, or None."""
        return self._free[0] if self._free else None

    def allocate_on(self, unit: int, units: int) -> int:
        """Pop the oldest free block on parallel unit ``unit``.

        Used by :class:`~repro.ftl.stripe.Frontier` to open one block
        per channel/die.  Falls back to plain FIFO :meth:`allocate` when
        the unit has no free block - correctness (having *a* frontier) always beats
        stripe placement.  At ``units == 1`` every block is on unit 0,
        so this is exactly :meth:`allocate`.
        """
        free = self._free
        for index, pbn in enumerate(free):
            if pbn % units == unit:
                del free[index]
                self._members.discard(pbn)
                return pbn
        return self.allocate()

    def snapshot(self) -> list:
        """Current free blocks in allocation order (for checkpoints)."""
        return list(self._free)


class VictimPool(MutableSet):
    """A collector's candidate victims (full blocks), filed by valid count.

    A set for its owners (frontiers retire into ``add``, recovery refills
    it in place, checkpoints iterate it).  Two picks answer without a
    scan: :meth:`pick` is :func:`~repro.ftl.gc_policy.select_greedy` and
    :meth:`pick_cost_benefit` is
    :func:`~repro.ftl.gc_policy.select_cost_benefit` over the members.  A
    member is never programmed and leaves before it is erased, so only
    invalidation moves its count: the device lists those blocks
    (``flash.invalidated``), the one collector of that device takes the
    list and :meth:`refresh` re-files them.  Its seal - the OOB seq of its
    last programmed page - is read once, at :meth:`add`, and each bucket
    caches its oldest member: set when a block is filed, dropped when
    that member leaves and found again by one ``min`` at the next
    cost-benefit pick.
    """

    def __init__(self, flash: NandFlash):
        self._flash = flash
        ppb = flash.geometry.pages_per_block
        #: pbn -> the count it is filed under, and the members per count.
        self._bucket_of: Dict[int, int] = {}
        self._buckets = [set() for _ in range(ppb + 1)]
        #: pbn -> ``seal * num_blocks + pbn``: its seal, ties to the lower
        #: pbn, as one int (``min`` by it is the oldest member).
        self._age_rank: Dict[int, int] = {}
        #: Per count, the bucket's member of least rank; None while
        #: unknown (the bucket is empty, or that member left).
        self._oldest: List[Optional[int]] = [None] * (ppb + 1)

    def __contains__(self, pbn: object) -> bool:
        return pbn in self._bucket_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._bucket_of)

    def __len__(self) -> int:
        return len(self._bucket_of)

    def seal(self, pbn: int) -> int:
        """The OOB seq of the member's last programmed page, as read at
        :meth:`add`."""
        return self._age_rank[pbn] // self._flash.geometry.num_blocks

    def add(self, pbn: int) -> None:
        if pbn not in self._bucket_of:
            flash = self._flash
            geometry = flash.geometry
            # The page below the write pointer (an empty block's first
            # page, erased: seq 0).
            last = pbn * geometry.pages_per_block + \
                max(flash.write_ptr[pbn] - 1, 0)
            self._age_rank[pbn] = \
                flash.oob_seq[last] * geometry.num_blocks + pbn
            self._file(pbn, flash.valid_count[pbn])

    def _file(self, pbn: int, valid: int) -> None:
        self._bucket_of[pbn] = valid
        bucket = self._buckets[valid]
        oldest = self._oldest[valid]
        if not bucket or oldest is not None and \
                self._age_rank[pbn] < self._age_rank[oldest]:
            self._oldest[valid] = pbn
        bucket.add(pbn)

    def _unfile(self, pbn: int, valid: int) -> None:
        self._buckets[valid].discard(pbn)
        if self._oldest[valid] == pbn:
            self._oldest[valid] = None

    def discard(self, pbn: int) -> None:
        if pbn in self._bucket_of:
            self._unfile(pbn, self._bucket_of.pop(pbn))
            del self._age_rank[pbn]

    def clear(self) -> None:  # the mixin's pops are quadratic on a dict
        for pbn in list(self._bucket_of):
            self.discard(pbn)

    def update(self, pbns: Iterable[int]) -> None:
        for pbn in pbns:
            self.add(pbn)

    def refresh(self, touched: Iterable[int]) -> None:
        """Re-file the members among ``touched`` under their count now."""
        # _unfile then _file, inlined: this runs once per block
        # invalidated between two picks.
        bucket_of = self._bucket_of
        buckets = self._buckets
        oldest = self._oldest
        rank = self._age_rank
        valid_count = self._flash.valid_count
        for pbn in touched:
            if pbn in bucket_of:
                was = bucket_of[pbn]
                valid = valid_count[pbn]
                if valid == was:
                    continue
                buckets[was].discard(pbn)
                if oldest[was] == pbn:
                    oldest[was] = None
                bucket_of[pbn] = valid
                bucket = buckets[valid]
                first = oldest[valid]
                if not bucket or first is not None and \
                        rank[pbn] < rank[first]:
                    oldest[valid] = pbn
                bucket.add(pbn)

    def describe(self) -> str:
        """Member count and best pick as they are now, for error messages."""
        self.refresh(self._flash.invalidated)  # a peek: the list stays
        return f"{len(self)} full, best (valid, pbn) {self.pick()}"

    def pick(self) -> Optional[Tuple[int, int]]:
        """``(valid, pbn)`` of the member ``select_greedy`` would choose;
        None if none has a page to reclaim (the last bucket is not read)."""
        buckets = self._buckets
        # The first non-empty bucket, found without a Python-level loop.
        valid = next(compress(range(len(buckets) - 1), buckets), None)
        return None if valid is None else (valid, min(buckets[valid]))

    def pick_cost_benefit(self, now: int) -> Optional[Tuple[int, int]]:
        """``(valid, pbn)`` of the member ``select_cost_benefit`` would
        choose at sequence number ``now``; None as :meth:`pick`.

        Within a bucket the oldest member scores highest, so the pick
        weighs one member per non-empty bucket, fewest valid first.
        """
        buckets = self._buckets
        oldest = self._oldest
        rank = self._age_rank
        ppb = len(buckets) - 1
        blocks = self._flash.geometry.num_blocks
        best: Optional[Tuple[int, int]] = None
        best_score = 0.0
        for valid in compress(range(ppb), buckets):
            pbn = oldest[valid]
            if pbn is None:
                pbn = oldest[valid] = min(buckets[valid], key=rank.__getitem__)
            score = (ppb - valid) * (now - rank[pbn] // blocks) / (ppb + valid)
            if best is None or score > best_score:
                best, best_score = (valid, pbn), score
        return best
