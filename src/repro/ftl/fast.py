"""FAST: Fully-Associative Sector Translation (log-block FTL baseline).

FAST shares its log blocks among *all* logical blocks: one sequential (SW)
log block absorbs in-order streams, and a set of random-write (RW) log
blocks absorb everything else, appended log-structured.  Space is reclaimed
by merging the *oldest* RW log block: every logical block with a valid page
in the victim must be fully merged, so one reclamation can cost
``distinct_lbns x pages_per_block`` copies - the long merge stalls that
motivate merge-free designs like LazyFTL.

Reference: Lee et al., "A log buffer-based flash translation layer using
fully-associative sector translation" (2007).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.page import FREE, VALID
from ..perf.maptable import MapTable
from .logblock import LogBlockFTL


class FastFTL(LogBlockFTL):
    """Fully-Associative Sector Translation: one sequential (SW) log block
    and one random-write (RW) partition, merged through the shared driver
    (merge kinds ``sw`` and ``rw``).

    Args:
        flash: Raw device.
        logical_pages: Exported logical space.
        num_rw_log_blocks: Random-write log-block pool size.
    """

    name = "FAST"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_rw_log_blocks: int = 8,
    ):
        if num_rw_log_blocks < 1:
            raise ValueError("num_rw_log_blocks must be >= 1")
        super().__init__(flash, logical_pages)
        self._require_blocks(self.num_lbns + num_rw_log_blocks + 3)
        self.num_rw_log_blocks = num_rw_log_blocks
        self._block_map = MapTable(self.num_lbns)
        #: The SW log: ``(lbn, pbn)`` of the stream it holds, if any.
        self._sw: Optional[Tuple[int, int]] = None
        self._rw_map = MapTable(logical_pages)  # lpn -> latest RW-log ppn
        self._rw_blocks: List[int] = []   # allocation (age) order

    def ram_bytes(self) -> int:
        """Block map + fully-associative RW page map (8 bytes per entry)."""
        return (
            self.num_lbns * MAP_ENTRY_BYTES
            + self._rw_map.mapped_count() * 2 * MAP_ENTRY_BYTES
            + (self.num_rw_log_blocks + 1) * MAP_ENTRY_BYTES
        )

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def write(self, lpn: int, data: Any = None) -> float:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        data_pbn = self._block_map.get(lbn)
        if data_pbn is None:
            data_pbn = self._pool.allocate()
            self._block_map[lbn] = data_pbn
            return self._program(data_pbn, off, lpn, data)
        if self.flash.page_states[
                data_pbn * self.pages_per_block + off] == FREE:
            # A partial merge can leave this slot free while a newer copy
            # still lives in a log block - retire that copy first.
            self._invalidate_current(lpn)
            return self._program(data_pbn, off, lpn, data)
        # Update: route by locality.
        sw_pbn = self._sw_log(lbn)
        if sw_pbn is not None and self.flash.write_ptr[sw_pbn] == off:
            self._invalidate_current(lpn)
            return self._program(sw_pbn, off, lpn, data)
        if off == 0:
            return self._start_sw(lbn, lpn, data)
        return self._append_rw(lpn, data)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _sw_log(self, lbn: int) -> Optional[int]:
        """The SW log block, if the stream it holds is ``lbn``'s."""
        sw = self._sw
        return sw[1] if sw is not None and sw[0] == lbn else None

    def _locate(self, lpn: int) -> Optional[int]:
        """In an RW log, else its block's SW log, else the data block."""
        ppn = self._rw_map.get(lpn)
        if ppn is not None:
            return ppn
        lbn, off = divmod(lpn, self.pages_per_block)
        states = self.flash.page_states
        for pbn in (self._sw_log(lbn), self._block_map.get(lbn)):
            if pbn is not None and \
                    states[pbn * self.pages_per_block + off] == VALID:
                return pbn * self.pages_per_block + off
        return None

    def _invalidate_current(self, lpn: int) -> None:
        super()._invalidate_current(lpn)
        self._rw_map.pop(lpn, None)

    # ------------------------------------------------------------------
    # The SW log
    # ------------------------------------------------------------------
    def _start_sw(self, lbn: int, lpn: int, data: Any) -> float:
        """An offset-0 update starts a fresh sequential stream for ``lbn``,
        merging the SW log first if there is one."""
        sw = self._sw
        latency = 0.0 if sw is None else self._merge_sw(*sw)
        pbn = self._pool.allocate()
        self._sw = (lbn, pbn)
        self._invalidate_current(lpn)
        return latency + self._program(pbn, 0, lpn, data)

    def _merge_sw(self, lbn: int, pbn: int) -> float:
        """Retire the SW log, ``lbn``'s block ``pbn``: switch if complete,
        else partial merge."""
        with self._merging("sw", lpn=lbn):
            self._sw = None
            data_pbn = self._block_map[lbn]
            pages = self.pages_per_block
            latency = self._merge_into_log(
                pbn, data_pbn,
                switch=self.flash.write_ptr[pbn] == pages
                and self.flash.valid_count[pbn] == pages)
            self._block_map[lbn] = pbn
            return latency + self._erase(data_pbn)

    # ------------------------------------------------------------------
    # The RW logs
    # ------------------------------------------------------------------
    def _append_rw(self, lpn: int, data: Any) -> float:
        """Append ``lpn`` to the newest RW log block, merging the oldest
        first if the newest is full and the partition is too."""
        latency = 0.0
        pages = self.pages_per_block
        write_ptr = self.flash.write_ptr
        rw_blocks = self._rw_blocks
        if not rw_blocks or write_ptr[rw_blocks[-1]] >= pages:
            if len(rw_blocks) >= self.num_rw_log_blocks:
                latency += self._merge_victim(rw_blocks.pop(0))
            rw_blocks.append(self._pool.allocate())
        pbn = rw_blocks[-1]
        off = write_ptr[pbn]
        self._invalidate_current(lpn)
        latency += self._program(pbn, off, lpn, data)
        self._rw_map[lpn] = pbn * pages + off
        return latency

    def _merge_victim(self, victim: int) -> float:
        """Full merges for every logical block alive in ``victim``, in the
        order of their first live page there; the victim, then empty, is
        erased."""
        with self._merging("rw", ppn=victim):
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
        sw_pbn = self._sw_log(lbn)
        if sw_pbn is not None and self.flash.valid_count[sw_pbn] == 0:
            # All the SW log's valid pages belonged to this lbn and were
            # just consumed; retire the now-empty block.
            self._sw = None
            latency += self._erase(sw_pbn)
        return latency
