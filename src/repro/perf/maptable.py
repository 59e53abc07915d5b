"""Flat array-backed mapping tables for the engine's hot paths.

Every FTL scheme in this reproduction keeps some logical-to-physical map.
The seed implementation used ``dict``/``list`` of ``Optional[int]``, which
costs a hash probe (or a 28-byte boxed int) per entry and per access.
:class:`MapTable` replaces them with a single flat ``array('q')`` whose
sentinel ``-1`` means *unmapped*: entries are machine words, lookups are a
C-level index, and the table's memory is one contiguous buffer.

Two access levels:

* dict/list-compatible wrappers (``get`` / ``pop`` / ``[]`` / iteration /
  ``items``) that speak ``Optional[int]`` so existing call sites and tests
  keep working unchanged;
* the ``raw`` array itself for hot loops, which read/write ``-1``
  directly and skip the ``None`` boxing entirely.

What a ``dict``-based map would cost is measured, not linted: ftlbench
gates ``replay_kops_per_s`` and ``peak_rss_mb`` on every workload.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

#: Sentinel stored in :attr:`MapTable.raw` for an unmapped entry.
UNMAPPED = -1


class MapTable:
    """Fixed-capacity logical->physical map over ``array('q')``.

    ``table[i]`` / ``get`` / ``pop`` translate the ``-1`` sentinel to
    ``None`` (and back on assignment), so the table drops into code
    written against ``Dict[int, int]`` or ``List[Optional[int]]``.
    ``len(table)`` is the capacity (list semantics); use
    :meth:`mapped_count` for the number of live entries.

    Hot paths should bind ``table.raw`` once and test ``< 0`` instead of
    ``is None``.
    """

    __slots__ = ("raw",)

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be non-negative")
        self.raw: "array[int]" = array("q", (UNMAPPED,)) * size

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index: int) -> Optional[int]:
        value = self.raw[index]
        return value if value >= 0 else None

    def __setitem__(self, index: int, value: Optional[int]) -> None:
        if value is None:
            self.raw[index] = UNMAPPED
        elif value < 0:
            raise ValueError("mapped values must be non-negative")
        else:
            self.raw[index] = value

    def __contains__(self, index: int) -> bool:
        return 0 <= index < len(self.raw) and self.raw[index] >= 0

    def __iter__(self) -> Iterator[Optional[int]]:
        """Iterate slot values in index order (``None`` for unmapped)."""
        for value in self.raw:
            yield value if value >= 0 else None

    def get(self, index: int, default: Optional[int] = None) -> Optional[int]:
        """Dict-style lookup: ``default`` when out of range or unmapped."""
        if 0 <= index < len(self.raw):
            value = self.raw[index]
            if value >= 0:
                return value
        return default

    def pop(self, index: int, default: Optional[int] = None) -> Optional[int]:
        """Remove and return an entry (``default`` when absent)."""
        raw = self.raw
        if 0 <= index < len(raw):
            value = raw[index]
            if value >= 0:
                raw[index] = UNMAPPED
                return value
        return default

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(index, value)`` for every mapped entry, ascending."""
        for index, value in enumerate(self.raw):
            if value >= 0:
                yield index, value

    def set_many(self, pairs: "Iterable[Tuple[int, int]]") -> None:
        """Bulk assignment of ``(index, ppn)`` pairs.

        The batch engine resolves an epoch's final mapping per
        lpn (last write wins) and commit the whole set here in one pass
        over the raw array.  Values must be real mappings (``>= 0``);
        unmapping stays per-index via ``table[i] = None``.
        """
        raw = self.raw
        for index, value in pairs:
            if value < 0:
                raise ValueError("mapped values must be non-negative")
            raw[index] = value

    def mapped_count(self) -> int:
        """Number of live (mapped) entries."""
        return sum(1 for value in self.raw if value >= 0)

    def clear(self) -> None:
        """Unmap every entry, keeping capacity (and ``raw`` identity)."""
        self.raw[:] = array("q", (UNMAPPED,)) * len(self.raw)

    def snapshot(self) -> List[Optional[int]]:
        """Checkpoint-friendly copy in the legacy list-of-Optional form."""
        return [value if value >= 0 else None for value in self.raw]

    def restore(self, entries: List[Optional[int]]) -> None:
        """Replace contents from a :meth:`snapshot`-shaped list."""
        if len(entries) != len(self.raw):
            raise ValueError(
                f"size mismatch: {len(entries)} != {len(self.raw)}"
            )
        self.raw[:] = array(
            "q", (UNMAPPED if e is None else e for e in entries)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MapTable(size={len(self.raw)}, mapped={self.mapped_count()})"

