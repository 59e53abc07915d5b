"""Configuration of the LazyFTL scheme."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LazyConfig:
    """Tunables of LazyFTL (the paper's m_u / m_c knobs and extensions).

    Attributes:
        uba_blocks: Size of the update block area in blocks (the paper's
            ``m_u``).  All host writes land here; a larger UBA defers and
            batches more mapping commits per conversion.  Must be >= 2 so a
            full block can be converted while the frontier keeps absorbing
            writes.
        cba_blocks: Size of the cold block area in blocks (``m_c``); GC
            relocations land here.  Must be >= 2.
        gc_free_threshold: Garbage collection runs whenever the free pool
            is at or below this many blocks.
        checkpoint_interval: Write a recovery checkpoint every this many
            host page writes (0 disables periodic checkpoints; explicit
            :meth:`~repro.core.lazyftl.LazyFTL.checkpoint` calls still
            work).
        wear_threshold: Static wear-leveling trigger - when the spread
            between the most- and least-erased block exceeds this, the
            coldest data block is forcibly recycled.  None disables.
        global_batching: When a conversion rewrites a GMT page, commit
            *every* UMT entry that page covers (not only the converted
            block's own entries).  On by default - this is what makes
            conversion cost amortise; the off position exists for the
            E11 ablation benchmark.
        convert_policy: How to pick the block to convert when an area is
            at capacity.  ``"fifo"`` (default) converts the oldest block;
            ``"cheapest"`` converts the block whose pending entries span
            the fewest distinct GMT pages (fewest read-modify-writes now,
            at the cost of keeping old blocks staged longer).
        background_gc: Run garbage collection during device idle time
            (extension; only observable under open-loop replay).  Keeps
            the free pool above ``2 x gc_free_threshold`` opportunistically
            so foreground requests stall on GC less often.
    """

    uba_blocks: int = 8
    cba_blocks: int = 4
    gc_free_threshold: int = 4
    checkpoint_interval: int = 0
    wear_threshold: Optional[int] = None
    global_batching: bool = True
    convert_policy: str = "fifo"
    background_gc: bool = False

    def __post_init__(self) -> None:
        if self.uba_blocks < 2:
            raise ValueError("uba_blocks must be >= 2")
        if self.cba_blocks < 2:
            raise ValueError("cba_blocks must be >= 2")
        if self.gc_free_threshold < 3:
            raise ValueError("gc_free_threshold must be >= 3")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if self.wear_threshold is not None and self.wear_threshold < 1:
            raise ValueError("wear_threshold must be >= 1 or None")
        if self.convert_policy not in ("fifo", "cheapest"):
            raise ValueError("convert_policy must be 'fifo' or 'cheapest'")
