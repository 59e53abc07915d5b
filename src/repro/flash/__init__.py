"""Raw NAND flash device simulator (the substrate every FTL runs on).

Public surface:

* :class:`FlashGeometry` / :func:`geometry_for_capacity` - device layout;
* :class:`TimingModel` and the ``SLC_TIMING`` / ``MLC_TIMING`` /
  ``UNIT_TIMING`` presets - per-operation latencies;
* :class:`NandFlash` - the device itself (read / program / erase + power
  loss injection via :class:`PowerFault`), owner of the flat page/block
  state arrays and of the per-unit busy-until clocks that overlap ops on
  a multi-channel / multi-die geometry; :class:`PageState` names the
  per-page state codes;
* :class:`OOBData`, :class:`PageKind`, :class:`SequenceCounter` - spare-area
  metadata used by FTL recovery;
* :class:`FlashStats`, :func:`wear_summary` - accounting.
"""

from .chip import NandFlash
from .errors import (
    BadBlockError,
    DeviceOffError,
    EraseError,
    FlashError,
    OutOfRangeError,
    PowerLossError,
    ProgramError,
    ReadError,
    RedundantInvalidateWarning,
)
from .fault import PowerFault
from .geometry import MAP_ENTRY_BYTES, FlashGeometry, geometry_for_capacity
from .oob import OOBData, PageKind, SequenceCounter
from .page import PageState
from .stats import FlashStats, wear_summary
from .timing import MLC_TIMING, SLC_TIMING, UNIT_TIMING, TimingModel

__all__ = [
    "NandFlash",
    "BadBlockError",
    "DeviceOffError",
    "EraseError",
    "FlashError",
    "OutOfRangeError",
    "PowerLossError",
    "ProgramError",
    "ReadError",
    "RedundantInvalidateWarning",
    "PowerFault",
    "MAP_ENTRY_BYTES",
    "FlashGeometry",
    "geometry_for_capacity",
    "OOBData",
    "PageKind",
    "SequenceCounter",
    "PageState",
    "FlashStats",
    "wear_summary",
    "MLC_TIMING",
    "SLC_TIMING",
    "UNIT_TIMING",
    "TimingModel",
]
