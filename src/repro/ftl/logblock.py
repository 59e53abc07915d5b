"""Merging: what the log-block baselines share.

BAST, FAST, LAST and NFTL absorb updates in *log* (replacement) blocks and
win space back by **merging** a log block with the data block it shadows.
Every merge, whatever its scheme calls it, moves pages the same way and is
traced the same way, and each is written once (docs/INTERNALS.md,
"Merging: one driver"): :meth:`LogBlockFTL._merge_copy` is the one copy
loop, :meth:`LogBlockFTL._merging` the one ``MergeStart`` / ``MergeEnd``
bracket.  A scheme keeps *which* blocks merge and when, which pages are
the sources, and what happens to its maps afterwards.

FAST and LAST are one log buffer, :class:`LogBufferFTL`: FAST is it with
one sequential log and one random partition; LAST adds sequential logs, a
hot / cold pair of partitions and dead-block reclamation.

The superblock scheme's in-group clean stays out: joining would make the
driver branch on its caller (``gc_page_copies`` under a GC span instead of
``merge_page_copies``, a destination and a page-map update per page).
"""

from __future__ import annotations

from abc import abstractmethod
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.oob import OOBData, SequenceCounter
from ..flash.page import FREE, VALID
from ..obs.events import Cause, EventType
from ..perf.maptable import MapTable
from .base import UNMAPPED_READ_US, FlashTranslationLayer, HostResult
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

    def read(self, lpn: int) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        ppn = self._locate(lpn)
        if ppn is None:
            return HostResult(UNMAPPED_READ_US)
        data, latency = self.flash.read_page(ppn)
        return HostResult(latency, data)

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


class LogBufferFTL(LogBlockFTL):
    """The log buffer FAST and LAST share.

    A subclass names its partitions: ``num_seq_log_blocks`` (how many
    logical blocks may have a sequential log at once), the ``kind`` its
    merge events carry, and :meth:`_write_random` (which random partition a
    page goes to, through :meth:`_append_random`).
    """

    #: ``kind`` of the sequential-log merge and of the victim merge.
    seq_merge_kind: str
    victim_merge_kind: str
    num_seq_log_blocks: int

    def __init__(self, flash: NandFlash, logical_pages: int, log_blocks: int):
        super().__init__(flash, logical_pages)
        self._require_blocks(self.num_lbns + log_blocks + 3)
        self._block_map = MapTable(self.num_lbns)
        #: lbn -> its sequential log block, least recently written first.
        self._seq_logs: "OrderedDict[int, int]" = OrderedDict()
        self._rw_map = MapTable(logical_pages)  # lpn -> latest random-log ppn

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def write(self, lpn: int, data: Any = None) -> HostResult:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        data_pbn = self._block_map.get(lbn)
        if data_pbn is None:
            data_pbn = self._pool.allocate()
            self._block_map[lbn] = data_pbn
            return HostResult(self._program(data_pbn, off, lpn, data))
        if self.flash.page_states[
                data_pbn * self.pages_per_block + off] == FREE:
            # A partial merge can leave this slot free while a newer copy
            # still lives in a log block - retire that copy first.
            self._invalidate_current(lpn)
            return HostResult(self._program(data_pbn, off, lpn, data))
        # Update: route by locality.
        seq_pbn = self._seq_logs.get(lbn)
        if seq_pbn is not None and self.flash.write_ptr[seq_pbn] == off:
            return HostResult(self._append_seq(lbn, seq_pbn, lpn, off, data))
        if off == 0:
            return HostResult(self._start_seq(lbn, lpn, data))
        return HostResult(self._write_random(lpn, data))

    @abstractmethod
    def _write_random(self, lpn: int, data: Any) -> float:
        """Append ``lpn`` to the random partition it belongs in."""

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _locate(self, lpn: int) -> Optional[int]:
        """In a random log, else its block's sequential log, else the data
        block."""
        ppn = self._rw_map.get(lpn)
        if ppn is not None:
            return ppn
        lbn, off = divmod(lpn, self.pages_per_block)
        states = self.flash.page_states
        for pbn in (self._seq_logs.get(lbn), self._block_map.get(lbn)):
            if pbn is not None and \
                    states[pbn * self.pages_per_block + off] == VALID:
                return pbn * self.pages_per_block + off
        return None

    def _invalidate_current(self, lpn: int) -> None:
        super()._invalidate_current(lpn)
        self._rw_map.pop(lpn, None)

    # ------------------------------------------------------------------
    # Sequential logs
    # ------------------------------------------------------------------
    def _start_seq(self, lbn: int, lpn: int, data: Any) -> float:
        """An offset-0 update starts a fresh sequential stream for ``lbn``,
        merging its previous log or, the partition full, the least
        recently written one."""
        latency = 0.0
        if lbn in self._seq_logs:
            latency += self._merge_seq(lbn)
        elif len(self._seq_logs) >= self.num_seq_log_blocks:
            latency += self._merge_seq(next(iter(self._seq_logs)))
        pbn = self._seq_logs[lbn] = self._pool.allocate()
        self._invalidate_current(lpn)
        return latency + self._program(pbn, 0, lpn, data)

    def _append_seq(self, lbn: int, pbn: int, lpn: int, off: int,
                    data: Any) -> float:
        self._seq_logs.move_to_end(lbn)
        self._invalidate_current(lpn)
        return self._program(pbn, off, lpn, data)

    def _merge_seq(self, lbn: int) -> float:
        """Retire ``lbn``'s sequential log: switch if complete, else
        partial merge."""
        with self._merging(self.seq_merge_kind, lpn=lbn):
            pbn = self._seq_logs.pop(lbn)
            data_pbn = self._block_map[lbn]
            pages = self.pages_per_block
            latency = self._merge_into_log(
                pbn, data_pbn,
                switch=self.flash.write_ptr[pbn] == pages
                and self.flash.valid_count[pbn] == pages)
            self._block_map[lbn] = pbn
            return latency + self._erase(data_pbn)

    # ------------------------------------------------------------------
    # Random partitions
    # ------------------------------------------------------------------
    def _append_random(self, partition: List[int], capacity: int, lpn: int,
                       data: Any) -> float:
        """Append ``lpn`` to the newest block of ``partition`` (age order,
        at most ``capacity`` blocks), reclaiming a block first if the
        newest is full and the partition is too."""
        latency = 0.0
        pages = self.pages_per_block
        write_ptr = self.flash.write_ptr
        if not partition or write_ptr[partition[-1]] >= pages:
            if len(partition) >= capacity:
                latency += self._reclaim(partition)
            partition.append(self._pool.allocate())
        pbn = partition[-1]
        off = write_ptr[pbn]
        self._invalidate_current(lpn)
        latency += self._program(pbn, off, lpn, data)
        self._rw_map[lpn] = pbn * pages + off
        return latency

    def _reclaim(self, partition: List[int]) -> float:
        """Take one block out of a full partition: merge the oldest."""
        return self._merge_victim(partition.pop(0))

    def _merge_victim(self, victim: int) -> float:
        """Full merges for every logical block alive in ``victim``, in the
        order of their first live page there; the victim, then empty, is
        erased."""
        with self._merging(self.victim_merge_kind, ppn=victim):
            lbns: List[int] = []
            for ppn in self.flash.valid_ppns(victim):
                lbn = self.flash.oob_lpn[ppn] // self.pages_per_block
                if lbn not in lbns:
                    lbns.append(lbn)
            latency = 0.0
            for lbn in lbns:
                latency += self._full_merge_lbn(lbn)
            return latency + self._erase(victim)

    def _full_merge_lbn(self, lbn: int) -> float:
        """Rebuild one logical block from all its scattered latest copies."""
        latency, fresh = self._gather_into_fresh(lbn)
        base = lbn * self.pages_per_block
        for lpn in range(base, base + self.pages_per_block):
            self._rw_map.pop(lpn, None)
        old_pbn = self._block_map[lbn]
        self._block_map[lbn] = fresh
        latency += self._erase(old_pbn)
        seq_pbn = self._seq_logs.get(lbn)
        if seq_pbn is not None and self.flash.valid_count[seq_pbn] == 0:
            # All the sequential log's valid pages belonged to this lbn and
            # were just consumed; retire the now-empty block.
            del self._seq_logs[lbn]
            latency += self._erase(seq_pbn)
        return latency
