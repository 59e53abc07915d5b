"""The lifecycle of a physical flash page.

Pages move ``FREE -> VALID -> INVALID`` and only an erase of the whole block
returns them to ``FREE``.  Validity is an FTL-level notion (real NAND does
not know which pages are stale) but, as in FlashSim-style simulators, the
device keeps it so garbage-collection policies and statistics can read it
directly.

There is no per-page object: :class:`~repro.flash.chip.NandFlash` stores one
state code per ppn in a flat ``bytearray`` (``flash.page_states``), and the
codes are the integer values of :class:`PageState`.
"""

from __future__ import annotations

from enum import IntEnum


class PageState(IntEnum):
    """Lifecycle state of one physical page (the byte stored per ppn)."""

    FREE = 0     #: erased, programmable
    VALID = 1    #: holds the live copy of some logical page
    INVALID = 2  #: holds a stale copy awaiting garbage collection


#: Plain-int aliases for loops that compare ``flash.page_states[ppn]`` per
#: page (a module global is cheaper than an enum attribute lookup).
FREE = int(PageState.FREE)
VALID = int(PageState.VALID)
INVALID = int(PageState.INVALID)
