"""BAST: Block-Associative Sector Translation (log-block FTL baseline).

BAST keeps a coarse block-level mapping table in RAM and absorbs updates in
a small pool of *log blocks*, each dedicated to one logical block.  When the
pool is exhausted (or a log block fills up) the log block is *merged* with
its data block:

* **switch merge** - the log block was written fully and exactly in order:
  it simply becomes the data block (1 erase);
* **partial merge** - the log block holds an in-order prefix: the remaining
  pages are copied in from the data block, then switch (copies + 1 erase);
* **full merge** - anything else: a fresh block gathers the latest copy of
  every page, then both old blocks are erased (up to ``pages_per_block``
  copies + 2 erases).

Under random writes almost every merge is a full merge, which is the
overhead LazyFTL eliminates.  Reference: Kim et al., "A space-efficient
flash translation layer for CompactFlash systems" (2002).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

from ..flash.chip import NandFlash
from ..flash.geometry import MAP_ENTRY_BYTES
from ..flash.page import FREE, VALID
from ..perf.maptable import MapTable
from .logblock import LogBlockFTL


class _LogBlock:
    """RAM state of one log block: where each offset's latest copy lives."""

    __slots__ = ("pbn", "entries")

    def __init__(self, pbn: int):
        self.pbn = pbn
        self.entries: Dict[int, int] = {}  # data offset -> log offset (latest)


class BastFTL(LogBlockFTL):
    """Block-Associative Sector Translation.

    Args:
        flash: Raw device.
        logical_pages: Exported logical space (rounded up internally to
            whole logical blocks).
        num_log_blocks: Size of the log-block pool; the scheme's key knob.
    """

    name = "BAST"

    def __init__(
        self,
        flash: NandFlash,
        logical_pages: int,
        num_log_blocks: int = 8,
    ):
        super().__init__(flash, logical_pages)
        if num_log_blocks < 1:
            raise ValueError("num_log_blocks must be >= 1")
        self._require_blocks(
            self.num_lbns + num_log_blocks + 2,
            f" ({self.num_lbns} data + {num_log_blocks} log + 2 spare)",
        )
        self.num_log_blocks = num_log_blocks
        self._block_map = MapTable(self.num_lbns)
        self._logs: "OrderedDict[int, _LogBlock]" = OrderedDict()  # LRU

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def write(self, lpn: int, data: Any = None) -> float:
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        lbn, off = divmod(lpn, self.pages_per_block)
        data_pbn = self._block_map.get(lbn)
        if data_pbn is None:
            # First write into this logical block: in-place program.
            data_pbn = self._pool.allocate()
            self._block_map[lbn] = data_pbn
            return self._program(data_pbn, off, lpn, data)
        if self.flash.page_states[
                data_pbn * self.pages_per_block + off] == FREE:
            return self._program(data_pbn, off, lpn, data)
        # Update: must go to this logical block's log block.
        latency = 0.0
        log = self._logs.get(lbn)
        if log is not None and \
                self.flash.write_ptr[log.pbn] >= self.pages_per_block:
            # The merged data block holds the page at `off` VALID, so the
            # rewrite below still needs a log block.
            latency += self._merge(lbn)
            log = None
        if log is None:
            latency += self._allocate_log(lbn)
            log = self._logs[lbn]
        self._logs.move_to_end(lbn)
        log_off = self.flash.write_ptr[log.pbn]
        latency += self._program(log.pbn, log_off, lpn, data)
        self._invalidate_current(lpn)
        log.entries[off] = log_off
        return latency

    def ram_bytes(self) -> int:
        """Block map + per-log-block offset tables (2 bytes per entry)."""
        log_entries = sum(len(l.entries) for l in self._logs.values())
        return self.num_lbns * MAP_ENTRY_BYTES + log_entries * 2 + \
            self.num_log_blocks * MAP_ENTRY_BYTES

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _locate(self, lpn: int) -> Optional[int]:
        """In its block's log, else the data block."""
        lbn, off = divmod(lpn, self.pages_per_block)
        log = self._logs.get(lbn)
        if log is not None and off in log.entries:
            return log.pbn * self.pages_per_block + log.entries[off]
        data_pbn = self._block_map.get(lbn)
        if data_pbn is not None:
            ppn = data_pbn * self.pages_per_block + off
            if self.flash.page_states[ppn] == VALID:
                return ppn
        return None

    def _allocate_log(self, lbn: int) -> float:
        """Attach a fresh log block to ``lbn``, evicting (merging) if full."""
        latency = 0.0
        if len(self._logs) >= self.num_log_blocks:
            victim_lbn = next(iter(self._logs))  # least recently used
            latency += self._merge(victim_lbn)
        self._logs[lbn] = _LogBlock(self._pool.allocate())
        return latency

    def _merge(self, lbn: int) -> float:
        """Merge ``lbn``'s log block with its data block (cheapest form).

        The log stays attached until the merge returns: a full merge that
        cannot allocate (a dying device) must leave its pages readable.
        """
        log = self._logs[lbn]
        k = self.flash.write_ptr[log.pbn]
        in_order_prefix = len(log.entries) == k and all(
            log.entries.get(i) == i for i in range(k)
        )
        if in_order_prefix and k == self.pages_per_block:
            kind = "switch"
        elif in_order_prefix and k > 0:
            kind = "partial"
        else:
            kind = "full"
        data_pbn = self._block_map[lbn]
        with self._merging(kind, lpn=lbn):
            if kind == "full":
                latency, new_pbn = self._gather_into_fresh(lbn)
            else:
                new_pbn = log.pbn
                latency = self._merge_into_log(
                    log.pbn, data_pbn, switch=kind == "switch")
            self._block_map[lbn] = new_pbn
            latency += self._erase(data_pbn)
            if new_pbn != log.pbn:  # the log did not become the data block
                latency += self._erase(log.pbn)
        del self._logs[lbn]
        return latency
