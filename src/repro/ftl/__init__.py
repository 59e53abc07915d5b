"""Flash translation layers: the shared framework and the baseline schemes.

* :class:`FlashTranslationLayer` / :class:`ReadResult` - the FTL contract;
* :class:`PageFTL` - ideal page mapping (the theoretical optimum baseline);
* :class:`BastFTL` - block-associative log blocks (switch/partial/full
  merges);
* :class:`FastFTL` - fully-associative log blocks (long full-merge stalls);
* :class:`SuperblockFTL` - superblock-level mapping with in-group
  cleaning;
* :mod:`repro.ftl.logblock` - the one merge driver (copy loop +
  ``MergeStart`` / ``MergeEnd`` bracket) BAST and FAST share;
* :class:`DftlFTL` - demand-cached page mapping (the strongest baseline);
* :class:`BlockPool`, the GC victim policy and :class:`FtlStats` - shared
  machinery;
* :mod:`repro.ftl.mapping` - the flash-resident page table (translation
  pages + GTD) that DFTL and LazyFTL share.

LazyFTL itself, the paper's contribution, lives in :mod:`repro.core`.
"""

from .base import UNMAPPED_READ_US, FlashTranslationLayer, ReadResult
from .bast import BastFTL
from .dftl import DftlFTL
from .fast import FastFTL
from .superblock import SuperblockFTL
from .gc_policy import select_cost_benefit, select_greedy
from .pool import BlockPool, OutOfBlocksError
from .pure_page import PageFTL
from .stats import FtlStats

__all__ = [
    "UNMAPPED_READ_US",
    "FlashTranslationLayer",
    "ReadResult",
    "BastFTL",
    "DftlFTL",
    "FastFTL",
    "SuperblockFTL",
    "PageFTL",
    "BlockPool",
    "OutOfBlocksError",
    "FtlStats",
    "select_cost_benefit",
    "select_greedy",
]
