"""Block-device emulation: the disk-like interface FTLs exist to provide."""

from .blockdev import SECTOR_BYTES, FlashBlockDevice

__all__ = ["SECTOR_BYTES", "FlashBlockDevice"]
