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
from ..flash.oob import OOBData, SequenceCounter
from ..obs.events import Cause, EventType
from .base import UNMAPPED_READ_US, FlashTranslationLayer, HostResult
from .pool import BlockPool


class _Chain:
    """A logical block's primary block + replacement chain."""

    __slots__ = ("blocks", "latest")

    def __init__(self, primary: int, pages_per_block: int):
        self.blocks: List[int] = [primary]
        #: offset -> index into ``blocks`` holding the newest version.
        self.latest: Dict[int, int] = {}


class NftlFTL(FlashTranslationLayer):
    """Replacement-block FTL.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        max_chain: Maximum replacement blocks per logical block before a
            fold is forced.
    """

    name = "NFTL"
    requires_random_program = True

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        max_chain: int = 2,
    ):
        super().__init__(flash, logical_pages)
        if max_chain < 1:
            raise ValueError("max_chain must be >= 1")
        pages = flash.geometry.pages_per_block
        self.pages_per_block = pages
        self.max_chain = max_chain
        self.num_lbns = (logical_pages + pages - 1) // pages
        # Chains grow on demand and fold under space pressure, so only the
        # primaries plus working slack are a hard requirement.
        required = self.num_lbns + 4
        if flash.geometry.num_blocks < required:
            raise ValueError(
                f"device too small: NFTL needs >= {required} blocks "
                f"({self.num_lbns} primaries + slack)"
            )
        self._chains: Dict[int, _Chain] = {}
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        lbn, offset = divmod(lpn, self.pages_per_block)
        chain = self._chains.get(lbn)
        if chain is None or offset not in chain.latest:
            return HostResult(UNMAPPED_READ_US)
        pbn = chain.blocks[chain.latest[offset]]
        ppn = self.flash.geometry.ppn_of(pbn, offset)
        data, _, latency = self.flash.read_page(ppn)
        return HostResult(latency, data)

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
        pbn = chain.blocks[depth]
        ppn = self.flash.geometry.ppn_of(pbn, offset)
        latency += self.flash.program_page(
            ppn, data, OOBData(lpn=lpn, seq=self._seq.next())
        )
        previous = chain.latest.get(offset)
        if previous is not None:
            old_ppn = self.flash.geometry.ppn_of(
                chain.blocks[previous], offset
            )
            self.flash.invalidate_page(old_ppn)
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
        for depth, pbn in enumerate(chain.blocks):
            if self.flash.block(pbn).is_free(offset):
                return depth
        return None

    def _fold(self, lbn: int, chain: _Chain) -> float:
        """Collapse the chain: newest versions into one fresh block."""
        tracer = self._tracer
        if tracer is not None:
            tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                              lpn=lbn, kind="fold")
        try:
            return self._fold_inner(lbn, chain)
        finally:
            if tracer is not None:
                tracer.span_end(EventType.MERGE_END, lpn=lbn, kind="fold")

    def _fold_inner(self, lbn: int, chain: _Chain) -> float:
        self.stats.merges_full += 1
        geometry = self.flash.geometry
        latency = 0.0
        fresh = self._pool.allocate()
        for offset, depth in sorted(chain.latest.items()):
            src = geometry.ppn_of(chain.blocks[depth], offset)
            data, oob, read_lat = self.flash.read_page(src)
            latency += read_lat
            latency += self.flash.program_page(
                geometry.ppn_of(fresh, offset),
                data,
                OOBData(lpn=oob.lpn, seq=self._seq.next()),
            )
            self.flash.invalidate_page(src)
            self.stats.merge_page_copies += 1
        for pbn in chain.blocks:
            latency += self._erase(pbn)
        chain.blocks = [fresh]
        chain.latest = {offset: 0 for offset in chain.latest}
        return latency
