"""Out-of-band (spare area) metadata stored alongside every flash page.

Real NAND pages carry a spare region (64+ bytes on 2 KiB pages) that FTLs use
for reverse mappings and consistency metadata.  LazyFTL's recovery design
depends on it: every data page records the logical page it holds and a
monotonically increasing sequence number, so that after a crash the update
and cold block areas can be scanned to rebuild the RAM-resident update
mapping table.

The device stores no :class:`OOBData` per page: it keeps four flat columns
(``oob_lpn`` / ``oob_seq`` / ``oob_kind`` / ``oob_cold`` on
:class:`~repro.flash.chip.NandFlash`, kind 0 meaning erased) and builds a
tuple only at its API edge, :meth:`~repro.flash.chip.NandFlash.oob`.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from functools import partial


class PageKind(IntEnum):
    """What a physical page holds, as recorded in its OOB area: the byte
    stored per ppn in ``flash.oob_kind`` (0 there: no OOB, erased)."""

    DATA = 1        #: a host data page
    MAPPING = 2     #: a GMT / translation page
    CHECKPOINT = 3  #: serialized GTD / UMT checkpoint state


_OOBBase = namedtuple("_OOBBase", ("lpn", "seq", "kind", "cold"))


class OOBData(_OOBBase):
    """Spare-area metadata written atomically with a page program.

    One OOBData is allocated per scalar page program (a run passes the
    columns instead) - a per-op hot path - so it is a validated named
    tuple rather than a frozen dataclass: tuple construction is a single
    C call, while a frozen dataclass pays an ``object.__setattr__`` per
    field.  Immutability (attribute assignment
    raises AttributeError) and field validation are preserved.

    Attributes:
        lpn: For ``DATA`` pages, the logical page stored here.  For
            ``MAPPING`` pages, the index of the mapping (translation) page.
            For ``CHECKPOINT`` pages, a fragment index.
        seq: Global program sequence number; strictly increases with every
            program on the device, letting recovery order duplicate copies of
            the same logical page.
        kind: The page's role (data / mapping / checkpoint).
        cold: LazyFTL flags pages relocated by garbage collection as cold so
            recovery can tell update-area pages from cold-area pages.
    """

    __slots__ = ()

    def __new__(
        cls,
        lpn: int,
        seq: int,
        kind: PageKind = PageKind.DATA,
        cold: bool = False,
    ) -> "OOBData":
        if lpn < 0:
            raise ValueError("lpn must be non-negative")
        if seq < 0:
            raise ValueError("seq must be non-negative")
        return tuple.__new__(cls, (lpn, seq, kind, cold))


#: Unvalidated constructor for per-program hot paths: builds an OOBData
#: from a ``(lpn, seq, kind, cold)`` 4-tuple via ``tuple.__new__``,
#: skipping the range checks in :meth:`OOBData.__new__` (and the Python
#: frame of namedtuple's ``_make``).  Only for call sites whose lpn/seq
#: provably come from frontier math and the :class:`SequenceCounter`
#: (both non-negative by construction).
make_oob = partial(tuple.__new__, OOBData)


class SequenceCounter:
    """Monotonic counter handing out OOB sequence numbers.

    A single counter is shared by all writers of one FTL instance so OOB
    sequence numbers establish a total order over every program operation.
    """

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("start must be non-negative")
        self._next = start

    @property
    def current(self) -> int:
        """The next value that will be handed out (not yet used)."""
        return self._next

    def next(self) -> int:
        """Return the next sequence number and advance the counter."""
        value = self._next
        self._next += 1
        return value

    def take(self, n: int) -> int:
        """Hand out ``n`` consecutive numbers (a run's programs, in page
        order); returns the first."""
        first = self._next
        self._next += n
        return first

    def fast_forward(self, seen: int) -> None:
        """Ensure future values are strictly greater than ``seen``.

        Recovery uses this after scanning OOB areas so post-crash writes do
        not reuse sequence numbers.
        """
        if seen >= self._next:
            self._next = seen + 1
