"""NFTL: the classic replacement-block FTL (historical baseline).

NFTL (M-Systems' NAND FTL, late 1990s - the scheme behind early
CompactFlash/DiskOnChip products) maps each logical block to a *primary*
physical block written strictly in-place, plus a chain of *replacement*
blocks: an update to an already-written offset goes to the same offset of
the first replacement block with that slot free, extending the chain as
needed.  When a chain reaches its depth limit it is *folded*: the newest
version of every page is copied into a fresh block and the whole chain is
erased.

It predates BAST (which replaced same-offset replacement blocks with
append-ordered log blocks) and performs worst of the family under random
updates: every rewrite of one hot offset burns a whole chain slot, so hot
pages fold chains constantly.  Included to complete the historical
spectrum the LazyFTL paper's related work spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.page import FREE
from .base import HostResult
from .logblock import LogBlockFTL


class _Chain:
    """A logical block's primary block + replacement chain."""

    __slots__ = ("blocks", "latest")

    def __init__(self, primary: int, pages_per_block: int):
        self.blocks: List[int] = [primary]
        #: offset -> index into ``blocks`` holding the newest version.
        self.latest: Dict[int, int] = {}


class NftlFTL(LogBlockFTL):
    """Replacement-block FTL.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        max_chain: Maximum replacement blocks per logical block before a
            fold is forced.
    """

    name = "NFTL"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        max_chain: int = 2,
    ):
        super().__init__(flash, logical_pages)
        if max_chain < 1:
            raise ValueError("max_chain must be >= 1")
        self.max_chain = max_chain
        # Chains grow on demand and fold under space pressure, so only the
        # primaries plus working slack are a hard requirement.
        self._require_blocks(
            self.num_lbns + 4, f" ({self.num_lbns} primaries + slack)")
        self._chains: Dict[int, _Chain] = {}

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def write(self, lpn: int, data: Any = None) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        lbn, offset = divmod(lpn, self.pages_per_block)
        latency = 0.0
        chain = self._chains.get(lbn)
        if chain is None:
            latency += self._reclaim_if_low()
            chain = _Chain(self._pool.allocate(), self.pages_per_block)
            self._chains[lbn] = chain
        depth = self._writable_depth(chain, offset)
        if depth is None:
            if len(chain.blocks) <= self.max_chain:
                latency += self._reclaim_if_low(exclude=lbn)
                chain.blocks.append(self._pool.allocate())
                depth = len(chain.blocks) - 1
            else:
                latency += self._fold(lbn, chain)
                depth = self._writable_depth(chain, offset)
                if depth is None:  # primary slot taken by the fold itself
                    latency += self._reclaim_if_low(exclude=lbn)
                    chain.blocks.append(self._pool.allocate())
                    depth = len(chain.blocks) - 1
        latency += self._program(chain.blocks[depth], offset, lpn, data)
        self._invalidate_current(lpn)
        chain.latest[offset] = depth
        return HostResult(latency)

    def ram_bytes(self) -> int:
        """Block map + chain lists + per-offset depth bytes."""
        chain_blocks = sum(len(c.blocks) for c in self._chains.values())
        depth_entries = sum(len(c.latest) for c in self._chains.values())
        return (
            self.num_lbns * MAP_ENTRY_BYTES
            + chain_blocks * MAP_ENTRY_BYTES
            + depth_entries  # one byte of chain depth per written offset
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _locate(self, lpn: int) -> Optional[int]:
        """In the chain member holding the offset's newest version."""
        lbn, offset = divmod(lpn, self.pages_per_block)
        chain = self._chains.get(lbn)
        if chain is None or offset not in chain.latest:
            return None
        return chain.blocks[chain.latest[offset]] * self.pages_per_block \
            + offset

    def _reclaim_if_low(self, exclude: Optional[int] = None) -> float:
        """Under space pressure, fold the longest chain to free blocks.

        Folding an n-block chain frees n-1 blocks; historic NFTL devices
        relied on exactly this on-demand folding when spare space ran out.
        """
        latency = 0.0
        while len(self._pool) <= 2:
            victim_lbn = None
            longest = 1
            for lbn, chain in self._chains.items():
                if lbn == exclude:
                    continue
                if len(chain.blocks) > longest:
                    victim_lbn = lbn
                    longest = len(chain.blocks)
            if victim_lbn is None:
                break  # nothing reclaimable; let the allocation fail loudly
            latency += self._fold(victim_lbn, self._chains[victim_lbn])
        return latency

    def _writable_depth(self, chain: _Chain, offset: int) -> Optional[int]:
        """Shallowest chain member whose slot at ``offset`` is still free."""
        states = self.flash.page_states
        for depth, pbn in enumerate(chain.blocks):
            if states[pbn * self.pages_per_block + offset] == FREE:
                return depth
        return None

    def _fold(self, lbn: int, chain: _Chain) -> float:
        """Collapse the chain: newest versions into one fresh block."""
        with self._merging("fold", lpn=lbn):
            latency, fresh = self._gather_into_fresh(lbn)
            for pbn in chain.blocks:
                latency += self._erase(pbn)
            chain.blocks = [fresh]
            chain.latest = {offset: 0 for offset in chain.latest}
            return latency
