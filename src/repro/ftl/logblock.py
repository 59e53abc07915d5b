"""Merging: what the log-block baselines share.

BAST and FAST absorb updates in *log* blocks and win space back by
**merging** a log block with the data block it shadows.  Every merge,
whatever its scheme calls it, moves pages the same way and is traced the
same way, and each is written once (docs/INTERNALS.md, "Merging: one
driver"): :meth:`LogBlockFTL._merge_copy` is the one copy loop,
:meth:`LogBlockFTL._merging` the one ``MergeStart`` / ``MergeEnd``
bracket, and the switch / partial / full merge shapes are
:meth:`LogBlockFTL._merge_into_log` and
:meth:`LogBlockFTL._gather_into_fresh`.  A scheme keeps *which* blocks
merge and when, which pages are the sources, and what happens to its maps
afterwards.

The superblock scheme's in-group clean stays out: joining would make the
driver branch on its caller (``gc_page_copies`` under a GC span instead of
``merge_page_copies``, a destination and a page-map update per page).
"""

from __future__ import annotations

from abc import abstractmethod
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.oob import OOBData, SequenceCounter
from ..flash.page import VALID
from ..obs.events import Cause, EventType
from .base import (
    UNMAPPED_READ_US,
    FlashTranslationLayer,
    ReadResult,
    read_result,
)
from .pool import BlockPool


class LogBlockFTL(FlashTranslationLayer):
    """Base of the merging schemes: block geometry, pool, sequence counter,
    the in-place program, the copy driver and the merge bracket."""

    requires_random_program = True

    def __init__(self, flash: NandFlash, logical_pages: int):
        super().__init__(flash, logical_pages)
        pages = flash.geometry.pages_per_block
        self.pages_per_block = pages
        self.num_lbns = (logical_pages + pages - 1) // pages
        self._pool = BlockPool.for_device(flash)
        self._seq = SequenceCounter()

    def _require_blocks(self, required: int, detail: str = "") -> None:
        """Refuse a device with fewer than ``required`` blocks."""
        if self.flash.geometry.num_blocks < required:
            raise ValueError(
                f"device too small: {self.name} needs >= {required} blocks"
                + detail
            )

    def read(self, lpn: int) -> ReadResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        ppn = self._locate(lpn)
        if ppn is None:
            return read_result((None, UNMAPPED_READ_US))
        return read_result(self.flash.read_page(ppn))

    @abstractmethod
    def _locate(self, lpn: int) -> Optional[int]:
        """Physical location of the latest valid copy of ``lpn``, if any."""

    def _invalidate_current(self, lpn: int) -> None:
        """Invalidate the copy :meth:`_locate` names: the one a write
        supersedes, while the maps do not know the new one yet."""
        ppn = self._locate(lpn)
        if ppn is not None:
            self.flash.invalidate_page(ppn)

    def _program(self, pbn: int, off: int, lpn: int, data: Any) -> float:
        """Program ``lpn``'s data at offset ``off`` of block ``pbn``."""
        return self.flash.program_page(
            self.flash.geometry.ppn_of(pbn, off), data,
            OOBData(lpn=lpn, seq=self._seq.next()),
        )

    # ------------------------------------------------------------------
    # The one copy driver and the one bracket
    # ------------------------------------------------------------------
    def _merge_copy(self, dst_pbn: int,
                    sources: List[Tuple[int, int]]) -> float:
        """Copy every ``(offset, source ppn)`` to that offset of ``dst_pbn``;
        returns the simulated time.  The one merge copy loop.

        ``sources`` is complete before the first copy (nothing a copy does
        - an invalidation, a map update the caller defers - can change
        which pages move) and ascends by offset, so the destination is
        programmed front to back.  Merges stay by page on every device: a
        page lands at its *offset*, holes included, which is not the
        contiguous run ``program_run`` takes.  The caller owns the rest:
        allocating and later mapping ``dst_pbn``, erasing the sources'
        blocks, its own page maps.
        """
        flash = self.flash
        base = dst_pbn * self.pages_per_block
        seq_next = self._seq.next
        stats = self.stats
        latency = 0.0
        for off, src in sources:
            data, read_lat = flash.read_page(src)
            latency += read_lat
            latency += flash.program_page(
                base + off, data, OOBData(lpn=flash.oob_lpn[src],
                                          seq=seq_next()))
            flash.invalidate_page(src)
            stats.merge_page_copies += 1
        return latency

    @contextmanager
    def _merging(self, kind: str, lpn: Optional[int] = None,
                 ppn: Optional[int] = None) -> Iterator[None]:
        """Bracket one merge: ``MergeStart`` now, ``MergeEnd`` (and the
        ``merge`` cause popped) however the body leaves - a merge that dies
        of ``OutOfBlocksError`` or a power fault still closes its span.
        ``lpn`` names the logical block, ``ppn`` the victim block."""
        tracer = self._tracer
        if tracer is None:
            yield
            return
        tracer.span_start(EventType.MERGE_START, Cause.MERGE,
                          lpn=lpn, ppn=ppn, kind=kind)
        try:
            yield
        finally:
            tracer.span_end(EventType.MERGE_END, lpn=lpn, ppn=ppn, kind=kind)

    # ------------------------------------------------------------------
    # The merge shapes
    # ------------------------------------------------------------------
    def _merge_into_log(self, log_pbn: int, data_pbn: int,
                        switch: bool) -> float:
        """Switch or partial merge: make ``log_pbn`` a complete data block.
        *Switch*: it was written fully and in order, so every page of
        ``data_pbn`` is superseded - nothing to copy, nothing invalidated
        before the erase.  *Partial*: it holds an in-order prefix, and
        ``data_pbn``'s valid pages behind its write pointer are copied in.
        The caller maps ``log_pbn`` and erases ``data_pbn``."""
        if switch:
            self.stats.merges_switch += 1
            return 0.0
        self.stats.merges_partial += 1
        base = data_pbn * self.pages_per_block
        states = self.flash.page_states
        return self._merge_copy(log_pbn, [
            (off, base + off)
            for off in range(self.flash.write_ptr[log_pbn],
                             self.pages_per_block)
            if states[base + off] == VALID])

    def _gather_into_fresh(self, lbn: int) -> Tuple[float, int]:
        """Full merge (fold): a fresh block gathers the latest copy of every
        page of ``lbn``, wherever :meth:`_locate` finds it; ``(latency,
        fresh pbn)``.  The caller maps the block and erases the ones it
        emptied."""
        base = lbn * self.pages_per_block
        lpns = range(base, min(base + self.pages_per_block,
                               self.logical_pages))
        sources = [(lpn - base, src) for lpn, src in
                   zip(lpns, map(self._locate, lpns)) if src is not None]
        self.stats.merges_full += 1
        fresh = self._pool.allocate()
        return self._merge_copy(fresh, sources), fresh

