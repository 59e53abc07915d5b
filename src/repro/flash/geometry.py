"""Physical layout of a simulated NAND flash device.

The geometry maps between the flat *physical page number* (ppn) address space
used by FTLs and the (block, page-offset) coordinates used by the device
itself.  Everything downstream (FTLs, the simulator, benchmarks) sizes itself
from a single :class:`FlashGeometry` instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRangeError

#: Bytes of a logical/physical mapping entry (4-byte physical page address),
#: the figure LazyFTL and DFTL use when sizing mapping pages and RAM tables.
MAP_ENTRY_BYTES = 4


@dataclass(frozen=True, repr=False)
class FlashGeometry:
    """Immutable description of a flash device's layout.

    Parameters mirror the small-block SLC devices of the paper's era by
    default (2 KiB pages, 64 pages per block -> 128 KiB blocks).

    Attributes:
        num_blocks: Total number of erase blocks on the device.
        pages_per_block: Pages in one erase block.
        page_size: Data bytes per page (excluding the OOB spare area).
        channels: Independent command channels, the device's one level
            of parallelism (1 = the serial device of the paper's
            evaluation).  Operations on different channels overlap in
            simulated time, operations on the same channel serialize.

    Parallel addressing uses block-interleaved striping::

        channel = block % channels
        ppn     = block * pages_per_block + page

    i.e. consecutive block numbers round-robin across channels, so any run
    of ``channels`` consecutive blocks covers every channel once.
    """

    num_blocks: int = 1024
    pages_per_block: int = 64
    page_size: int = 2048
    channels: int = 1

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.num_blocks % self.channels != 0:
            raise ValueError(
                f"num_blocks ({self.num_blocks}) must be divisible by "
                f"channels ({self.channels}) so every channel holds the "
                f"same number of blocks"
            )

    @property
    def total_pages(self) -> int:
        """Total physical pages on the device."""
        return self.num_blocks * self.pages_per_block

    @property
    def block_bytes(self) -> int:
        """Data capacity of one erase block in bytes."""
        return self.pages_per_block * self.page_size

    @property
    def capacity_bytes(self) -> int:
        """Raw data capacity of the device in bytes."""
        return self.num_blocks * self.block_bytes

    @property
    def map_entries_per_page(self) -> int:
        """How many 4-byte mapping entries fit in one mapping page.

        This determines the fan-out of the GMT/translation pages in both
        LazyFTL and DFTL: with 2 KiB pages one mapping page covers 512
        logical pages.
        """
        return self.page_size // MAP_ENTRY_BYTES

    def __repr__(self) -> str:
        parallel = (
            f", {self.channels}ch [channel = block % {self.channels}; "
            f"ppn = block*{self.pages_per_block} + page]"
            if self.channels > 1
            else ""
        )
        return (
            f"FlashGeometry({self.num_blocks} blocks x "
            f"{self.pages_per_block} pages x {self.page_size}B"
            f"{parallel})"
        )

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def ppn_of(self, block: int, offset: int) -> int:
        """Return the flat physical page number for (block, page offset)."""
        self.check_block(block)
        if not 0 <= offset < self.pages_per_block:
            raise OutOfRangeError("page offset", offset, self.pages_per_block)
        return block * self.pages_per_block + offset

    def block_of(self, ppn: int) -> int:
        """Return the erase block that physical page ``ppn`` belongs to."""
        self.check_ppn(ppn)
        return ppn // self.pages_per_block

    def offset_of(self, ppn: int) -> int:
        """Return the in-block page offset of physical page ``ppn``."""
        self.check_ppn(ppn)
        return ppn % self.pages_per_block

    def split_ppn(self, ppn: int) -> tuple:
        """Return ``(block, offset)`` for physical page ``ppn``."""
        self.check_ppn(ppn)
        return divmod(ppn, self.pages_per_block)

    def check_ppn(self, ppn: int) -> None:
        """Raise :class:`OutOfRangeError` if ``ppn`` is not on the device."""
        if not 0 <= ppn < self.total_pages:
            raise OutOfRangeError("ppn", ppn, self.total_pages)

    def check_block(self, block: int) -> None:
        """Raise :class:`OutOfRangeError` for an invalid block number."""
        if not 0 <= block < self.num_blocks:
            raise OutOfRangeError("block", block, self.num_blocks)


def geometry_for_capacity(
    capacity_mib: int,
    pages_per_block: int = 64,
    page_size: int = 2048,
) -> FlashGeometry:
    """Build a geometry with (at least) ``capacity_mib`` MiB of raw capacity.

    Convenience used by benchmarks that sweep device sizes.
    """
    block_bytes = pages_per_block * page_size
    blocks = max(1, (capacity_mib * 1024 * 1024 + block_bytes - 1) // block_bytes)
    return FlashGeometry(
        num_blocks=blocks, pages_per_block=pages_per_block, page_size=page_size
    )
