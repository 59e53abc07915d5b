"""Free-block pool shared by all FTL implementations."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Sequence

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
