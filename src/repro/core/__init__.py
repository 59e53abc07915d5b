"""LazyFTL - the paper's primary contribution.

Public surface:

* :class:`LazyFTL` - the scheme itself (read / write / flush / checkpoint);
* :class:`LazyConfig` - area sizes (the paper's ``m_u`` / ``m_c``) and
  optional features (GMT cache, wear leveling, checkpoint cadence);
* :func:`recover` / :class:`RecoveryReport` - crash recovery;
* the building blocks (:class:`UpdateMappingTable`,
  :class:`GlobalTranslationDirectory`, :class:`MappingStore`) for tests,
  analysis and extensions.
"""

from .areas import BlockArea
from .config import LazyConfig
from ..ftl.mapping import GlobalTranslationDirectory, MappingStore
from .lazyftl import ANCHOR_BLOCKS, LazyFTL
from .recovery import CheckpointError, CheckpointScribe, RecoveryReport, recover
from .umt import UpdateMappingTable, group_by_tvpn

__all__ = [
    "ANCHOR_BLOCKS",
    "LazyFTL",
    "LazyConfig",
    "BlockArea",
    "GlobalTranslationDirectory",
    "MappingStore",
    "CheckpointError",
    "CheckpointScribe",
    "RecoveryReport",
    "recover",
    "UpdateMappingTable",
    "group_by_tvpn",
]
