"""Latency model for raw flash operations.

The LazyFTL paper's evaluation (like the DFTL/FlashSim line of work it
follows) is trace-driven: the cost of an FTL is the sum of the raw flash
operations it issues, weighted by fixed per-operation latencies.  This module
supplies those constants and a couple of realistic presets.

All times are microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimingModel:
    """Per-operation latencies of the flash device.

    Every latency is a whole number of microseconds, as in the
    trace-driven evaluations this model follows, so sums of latencies are
    exact in any association (the run ops rely on it).

    Attributes:
        page_read_us: Time to read one page into the controller.
        page_program_us: Time to program (write) one page.
        block_erase_us: Time to erase one block.
    """

    page_read_us: float = 25.0
    page_program_us: float = 200.0
    block_erase_us: float = 1500.0

    def __post_init__(self) -> None:
        for name in ("page_read_us", "page_program_us", "block_erase_us"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            if not float(value).is_integer():
                raise ValueError(
                    f"{name} must be a whole number of microseconds, "
                    f"got {value!r}")


#: Small-block SLC NAND of the paper's era (Samsung K9 class): the constants
#: used throughout the 2008-2011 FTL literature.
SLC_TIMING = TimingModel(
    page_read_us=25.0, page_program_us=200.0, block_erase_us=1500.0
)

#: A 2-bit MLC profile with slower programs/erases; used by ablation benches
#: to confirm the FTL ranking is robust to the device technology.
MLC_TIMING = TimingModel(
    page_read_us=50.0, page_program_us=600.0, block_erase_us=3000.0
)

#: All latencies equal to one "op": turns simulated time into an op count,
#: handy in unit tests that assert exact operation totals.
UNIT_TIMING = TimingModel(
    page_read_us=1.0, page_program_us=1.0, block_erase_us=1.0
)
