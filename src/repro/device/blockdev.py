"""Sector-granular block device emulated on top of any FTL.

This is the role the paper assigns the FTL: *"hides the special
characteristics of flash memory from upper file systems by emulating a
normal block device like magnetic disks."*  Hosts speak 512-byte sectors;
flash speaks 2 KiB pages; this layer does the gluing, including the
read-modify-write penalty for sub-page writes that sector-level traces
incur on page-level FTLs.

Payloads are arbitrary Python objects per sector (the simulator convention
everywhere in this library); a page stores a list of its sectors.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..ftl.base import FlashTranslationLayer, ReadResult, read_result

SECTOR_BYTES = 512


class FlashBlockDevice:
    """A magnetic-disk-like sector interface over an FTL.

    Like the simulator, this layer drives the FTL, so it marks the
    host-op boundary of the device's per-unit clocks
    (``flash.begin_host_op()``) before every page operation and flush.

    Args:
        ftl: Any :class:`~repro.ftl.base.FlashTranslationLayer`.
        sector_size: Host sector size in bytes (must divide the page size).
    """

    def __init__(self, ftl: FlashTranslationLayer,
                 sector_size: int = SECTOR_BYTES):
        page_size = ftl.flash.geometry.page_size
        if sector_size <= 0 or page_size % sector_size != 0:
            raise ValueError(
                f"sector_size {sector_size} must divide page size {page_size}"
            )
        self.ftl = ftl
        self.sector_size = sector_size
        self.sectors_per_page = page_size // sector_size
        #: Sub-page writes that forced a page read-modify-write.
        self.rmw_count = 0

    @property
    def capacity_sectors(self) -> int:
        """Host-visible capacity in sectors."""
        return self.ftl.logical_pages * self.sectors_per_page

    def _check_range(self, lba: int, n_sectors: int) -> None:
        if lba < 0 or n_sectors < 1:
            raise ValueError("lba must be >= 0 and n_sectors >= 1")
        if lba + n_sectors > self.capacity_sectors:
            raise ValueError(
                f"range [{lba}, {lba + n_sectors}) exceeds device capacity "
                f"{self.capacity_sectors} sectors"
            )

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def read(self, lba: int, n_sectors: int = 1) -> ReadResult:
        """Read ``n_sectors`` starting at sector ``lba``: the pages the
        span touches, as one host run op.  Returns ``(sectors,
        latency_us)``, ``data`` holding the sectors."""
        self._check_range(lba, n_sectors)
        per_page = self.sectors_per_page
        lpn, first = divmod(lba, per_page)
        pages = (first + n_sectors + per_page - 1) // per_page
        datas, latency = self.ftl.read_run(
            lpn, pages, self.ftl.flash.begin_host_op)
        sectors: List[Any] = []
        for page in datas:
            sectors.extend(page if page is not None else [None] * per_page)
        return read_result((sectors[first:first + n_sectors], latency))

    def write(self, lba: int, sectors: Sequence[Any]) -> float:
        """Write consecutive sectors starting at ``lba``; returns the
        latency.

        The whole pages of the span go straight through, as one host run
        op; a partial page at either end first reads the page's current
        content (read-modify-write), which is exactly the penalty
        misaligned sector traffic pays on a page-mapping FTL.
        """
        n_sectors = len(sectors)
        self._check_range(lba, n_sectors)
        per_page = self.sectors_per_page
        begin_host_op = self.ftl.flash.begin_host_op
        latency = 0.0
        lpn, first = divmod(lba, per_page)
        offset = 0
        if first:  # partial head
            offset = min(n_sectors, per_page - first)
            latency += self._write_partial(lpn, first, sectors[:offset])
            lpn += 1
        whole = (n_sectors - offset) // per_page
        if whole:
            stop = offset + whole * per_page
            latency += self.ftl.write_run(
                lpn,
                [list(sectors[at:at + per_page])
                 for at in range(offset, stop, per_page)],
                begin_host_op,
            )
            lpn += whole
            offset = stop
        if offset < n_sectors:  # partial tail
            latency += self._write_partial(lpn, 0, sectors[offset:])
        return latency

    def _write_partial(self, lpn: int, first: int,
                       chunk: Sequence[Any]) -> float:
        """Read-modify-write ``chunk`` into page ``lpn`` at sector
        ``first``; returns the latency of the read and the write."""
        self.rmw_count += 1
        ftl = self.ftl
        ftl.flash.begin_host_op()
        data, latency = ftl.read(lpn)
        page = (list(data) if data is not None
                else [None] * self.sectors_per_page)
        page[first:first + len(chunk)] = chunk
        ftl.flash.begin_host_op()
        return latency + ftl.write(lpn, page)

    def flush(self) -> float:
        """Propagate a host flush/sync (LazyFTL commits its UMT)."""
        flush = getattr(self.ftl, "flush", None)
        if not callable(flush):
            return 0.0
        self.ftl.flash.begin_host_op()
        return flush()
