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

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..ftl.base import FlashTranslationLayer

SECTOR_BYTES = 512


@dataclass(frozen=True)
class DeviceResult:
    """Outcome of a sector-level operation."""

    latency_us: float
    sectors: Optional[List[Any]] = None  # for reads


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
    def read(self, lba: int, n_sectors: int = 1) -> DeviceResult:
        """Read ``n_sectors`` starting at sector ``lba``."""
        self._check_range(lba, n_sectors)
        latency = 0.0
        sectors: List[Any] = []
        cursor = lba
        remaining = n_sectors
        while remaining > 0:
            lpn, first = divmod(cursor, self.sectors_per_page)
            take = min(remaining, self.sectors_per_page - first)
            self.ftl.flash.begin_host_op()
            result = self.ftl.read(lpn)
            latency += result.latency_us
            page = result.data if result.data is not None \
                else [None] * self.sectors_per_page
            sectors.extend(page[first:first + take])
            cursor += take
            remaining -= take
        return DeviceResult(latency, sectors)

    def write(self, lba: int, sectors: Sequence[Any]) -> DeviceResult:
        """Write consecutive sectors starting at ``lba``.

        Writes aligned to whole pages go straight through; partial pages
        first read the page's current content (read-modify-write), which
        is exactly the penalty misaligned sector traffic pays on a
        page-mapping FTL.
        """
        n_sectors = len(sectors)
        self._check_range(lba, n_sectors)
        latency = 0.0
        cursor = lba
        offset = 0
        while offset < n_sectors:
            lpn, first = divmod(cursor, self.sectors_per_page)
            take = min(n_sectors - offset, self.sectors_per_page - first)
            chunk = list(sectors[offset:offset + take])
            if take == self.sectors_per_page:
                page = chunk
            else:
                self.rmw_count += 1
                self.ftl.flash.begin_host_op()
                current = self.ftl.read(lpn)
                latency += current.latency_us
                page = (list(current.data) if current.data is not None
                        else [None] * self.sectors_per_page)
                page[first:first + take] = chunk
            self.ftl.flash.begin_host_op()
            latency += self.ftl.write(lpn, page).latency_us
            cursor += take
            offset += take
        return DeviceResult(latency)

    def flush(self) -> float:
        """Propagate a host flush/sync (LazyFTL commits its UMT)."""
        flush = getattr(self.ftl, "flush", None)
        if not callable(flush):
            return 0.0
        self.ftl.flash.begin_host_op()
        return flush()
