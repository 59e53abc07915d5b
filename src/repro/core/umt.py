"""UMT: the Update Mapping Table.

The RAM table at the heart of LazyFTL's laziness: it holds the mapping
entries of every page currently living in the update or cold block areas,
i.e. exactly the entries whose GMT copies are *deliberately stale*.  Its
size is bounded by the page capacity of those two small areas, so unlike
the ideal FTL's full map it stays tiny regardless of device capacity.

Storage is a flat ``array('q')`` of physical page numbers indexed by lpn
(sentinel -1 = absent), grown on demand.  Whether a copy is cold is the
OOB's business (recovery sorts UBA from CBA by the flag it scans), not
the table's.  The reported RAM footprint stays entry-count based (the
paper's 8-bytes-per-entry convention); the flat layout is a simulator
speed optimization, not a change to the modeled structure.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..flash.geometry import MAP_ENTRY_BYTES
from ..ftl.mapping import LpnsByPage
from ..perf.maptable import UNMAPPED


class UpdateMappingTable:
    """lpn -> ppn map of the deferred entries, with conversion helpers.

    Entries are additionally indexed by the GMT page (tvpn) that holds
    their mapping (:class:`~repro.ftl.mapping.LpnsByPage`, shared with
    DFTL), because conversion commits *every* UMT entry of a GMT page
    whenever that page is rewritten - the global batching that makes one
    mapping-page read-modify-write absorb updates from many blocks.

    Hot paths (LazyFTL's per-write UMT probe) should use :meth:`ppn_at`,
    which answers from the flat array with the -1 sentinel.
    """

    def __init__(self, entries_per_page: int = 512) -> None:
        if entries_per_page <= 0:
            raise ValueError("entries_per_page must be positive")
        self.entries_per_page = entries_per_page
        self._ppn = array("q")
        self._count = 0
        self._by_tvpn = LpnsByPage(entries_per_page)

    def _grow_to(self, lpn: int) -> None:
        """Extend the flat tables so index ``lpn`` is addressable."""
        size = len(self._ppn)
        new_size = max(lpn + 1, size * 2, 64)
        self._ppn.extend(array("q", (UNMAPPED,)) * (new_size - size))

    def __len__(self) -> int:
        return self._count

    def __contains__(self, lpn: int) -> bool:
        return 0 <= lpn < len(self._ppn) and self._ppn[lpn] >= 0

    def get(self, lpn: int) -> Optional[int]:
        """Physical location of ``lpn``, or None when absent."""
        ppn = self.ppn_at(lpn)
        return ppn if ppn >= 0 else None

    def ppn_at(self, lpn: int) -> int:
        """Physical location of ``lpn``, or -1 when absent (hot path)."""
        if 0 <= lpn < len(self._ppn):
            return self._ppn[lpn]
        return UNMAPPED

    def set(self, lpn: int, ppn: int) -> None:
        """Insert or replace the deferred entry for ``lpn``."""
        if lpn >= len(self._ppn):
            self._grow_to(lpn)
        was_absent = self._ppn[lpn] < 0
        self._ppn[lpn] = ppn
        if was_absent:
            self._count += 1
            self._by_tvpn.pages[lpn // self.entries_per_page].add(lpn)

    def set_many(self, pairs: "Iterable[Tuple[int, int]]") -> None:
        """Bulk :meth:`set`, one pass: a relocated run's new locations or a
        replay epoch's deferred entries (each lpn's *final* mapping)."""
        ppns = self._ppn
        pages = self._by_tvpn.pages
        entries_per_page = self.entries_per_page
        added = 0
        for lpn, ppn in pairs:
            if lpn >= len(ppns):
                self._grow_to(lpn)  # extends the column in place
            if ppns[lpn] < 0:
                added += 1
                pages[lpn // entries_per_page].add(lpn)
            ppns[lpn] = ppn
        self._count += added

    def discard(self, lpn: int) -> None:
        """Remove the entry for ``lpn`` if present."""
        if not (0 <= lpn < len(self._ppn)) or self._ppn[lpn] < 0:
            return
        self._ppn[lpn] = UNMAPPED
        self._count -= 1
        self._by_tvpn.discard(lpn)

    def discard_tvpn(self, tvpn: int) -> None:
        """Remove every entry covered by GMT page ``tvpn`` in one pass.

        Conversion with global batching commits *all* deferred entries of
        each rewritten GMT page, so retiring them per page skips the
        per-lpn tvpn-index bookkeeping :meth:`discard` would repeat.
        """
        peers = self._by_tvpn.pages.pop(tvpn, ())
        ppns = self._ppn
        for lpn in peers:
            ppns[lpn] = UNMAPPED
        self._count -= len(peers)

    def lpns_in_tvpn(self, tvpn: int) -> List[int]:
        """All lpns with deferred entries covered by GMT page ``tvpn``."""
        return sorted(self._by_tvpn.pages.get(tvpn, ()))

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(lpn, ppn)`` of every deferred entry, by ascending lpn."""
        for lpn, ppn in enumerate(self._ppn):
            if ppn >= 0:
                yield lpn, ppn

    def points_to(self, lpn: int, ppn: int) -> bool:
        """True when the UMT maps ``lpn`` exactly to ``ppn``.

        Conversion uses this to decide which of a block's pages still hold
        the newest copy; GC uses the negation to detect pages superseded by
        later writes (deferred invalidation).
        """
        return 0 <= lpn < len(self._ppn) and self._ppn[lpn] == ppn

    def ram_bytes(self) -> int:
        """8 bytes per entry (lpn + ppn), the paper's convention, per entry
        *held*: occupancy, not the UBA + CBA capacity the table may fill
        (DFTL's CMT is counted at capacity; see
        :meth:`repro.core.lazyftl.LazyFTL.ram_bytes`)."""
        return self._count * 2 * MAP_ENTRY_BYTES

    def restore(self, state: Dict[int, int]) -> None:
        """Replace contents with ``{lpn: ppn}`` (a recovery scan's)."""
        self._ppn = array("q")
        self._count = 0
        self._by_tvpn.pages.clear()
        self.set_many(state.items())


def group_by_tvpn(
    pairs: List[Tuple[int, int]], entries_per_page: int
) -> Dict[int, List[Tuple[int, int]]]:
    """Group (lpn, ppn) mapping updates by the GMT page that holds them.

    This grouping is what makes conversion cheap: one GMT page
    read-modify-write commits every update in a group (the paper's batch
    update).
    """
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for lpn, ppn in pairs:
        groups.setdefault(lpn // entries_per_page, []).append((lpn, ppn))
    return groups
