"""Block-area bookkeeping: UBA, CBA, DBA and MBA membership.

LazyFTL partitions physical blocks into four roles:

* **UBA** (update block area) - absorbs host writes, FIFO-converted;
* **CBA** (cold block area) - absorbs GC relocations, FIFO-converted;
* **DBA** (data block area) - converted blocks; the GC victim pool,
  held by the collector (:class:`~repro.ftl.gc_policy.GarbageCollector`);
* **MBA** (mapping block area) - GMT pages (managed by
  :class:`~repro.ftl.mapping.MappingStore`).

The frontier of the UBA/CBA is the newest block (tail of the FIFO); the
conversion victim is the oldest (head) that the area's frontier does not
hold open.  Because conversion moves no data,
a block leaves the UBA/CBA simply by having its mapping entries committed.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Deque, Iterable, List, Optional


class BlockArea:
    """A FIFO area (UBA or CBA) with a capacity in blocks."""

    def __init__(self, name: str, capacity: int):
        if capacity < 2:
            raise ValueError(f"{name} capacity must be >= 2")
        self.name = name
        self.capacity = capacity
        self._fifo: Deque[int] = deque()

    def __len__(self) -> int:
        return len(self._fifo)

    def __contains__(self, pbn: int) -> bool:
        return pbn in self._fifo

    def __iter__(self):
        return iter(self._fifo)

    @property
    def is_at_capacity(self) -> bool:
        return len(self._fifo) >= self.capacity

    @property
    def frontier(self) -> Optional[int]:
        """The block currently absorbing writes (newest), or None."""
        return self._fifo[-1] if self._fifo else None

    @property
    def oldest(self) -> Optional[int]:
        """The next conversion victim, or None."""
        return self._fifo[0] if self._fifo else None

    def push(self, pbn: int) -> None:
        """Append a fresh block as the new frontier."""
        if pbn in self._fifo:
            raise ValueError(f"block {pbn} already in {self.name}")
        self._fifo.append(pbn)

    def pop_oldest(self, held: Collection[int] = ()) -> int:
        """Remove and return the conversion victim: the oldest block not
        in ``held`` (the blocks the area's frontier holds open), or the
        oldest if it holds every one."""
        fifo = self._fifo
        if not fifo:
            raise IndexError(f"{self.name} is empty")
        for pbn in fifo:
            if pbn not in held:
                fifo.remove(pbn)
                return pbn
        return fifo.popleft()

    def remove(self, pbn: int) -> None:
        """Remove a specific block (non-FIFO conversion policies)."""
        try:
            self._fifo.remove(pbn)
        except ValueError:
            raise ValueError(f"block {pbn} not in {self.name}") from None

    def snapshot(self) -> List[int]:
        """Blocks oldest-first, for checkpoints."""
        return list(self._fifo)

    def restore(self, blocks: Iterable[int]) -> None:
        self._fifo = deque(blocks)
        if len(set(self._fifo)) != len(self._fifo):
            raise ValueError(f"duplicate blocks restored into {self.name}")
