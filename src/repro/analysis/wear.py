"""Wear analysis: erase-count distributions and lifetime projections."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..flash.chip import NandFlash
from ..flash.stats import wear_summary


def wear_profile(flash: NandFlash, exclude: Sequence[int] = ()) -> Dict[str, float]:
    """Erase-count summary over the device, excluding reserved blocks."""
    skip = set(exclude)
    counts = [
        count for pbn, count in enumerate(flash.erase_count)
        if pbn not in skip
    ]
    return wear_summary(counts)


def erase_histogram(
    flash: NandFlash, bins: int = 8, exclude: Sequence[int] = ()
) -> List[tuple]:
    """Histogram of per-block erase counts: (lo, hi, blocks) triples."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    skip = set(exclude)
    counts = [
        count for pbn, count in enumerate(flash.erase_count)
        if pbn not in skip
    ]
    if not counts:
        return []
    lo, hi = min(counts), max(counts)
    if lo == hi:
        return [(lo, hi, len(counts))]
    width = (hi - lo) / bins
    histogram = []
    for i in range(bins):
        b_lo = lo + i * width
        b_hi = lo + (i + 1) * width
        if i == bins - 1:
            members = sum(1 for c in counts if b_lo <= c <= b_hi)
        else:
            members = sum(1 for c in counts if b_lo <= c < b_hi)
        histogram.append((b_lo, b_hi, members))
    return histogram


def lifetime_projection(
    flash: NandFlash,
    host_pages_written: int,
    endurance_cycles: int = 100_000,
    exclude: Sequence[int] = (),
) -> Dict[str, float]:
    """Project device lifetime from observed wear.

    Returns write amplification (physical/host page writes), the limiting
    (max) erase count, and the fraction of rated endurance consumed per
    host page written - the figures a wear-leveling comparison reports.
    """
    if host_pages_written <= 0:
        raise ValueError("host_pages_written must be positive")
    profile = wear_profile(flash, exclude=exclude)
    amplification = (
        flash.stats.page_programs / host_pages_written
    )
    wear_rate = profile["max"] / endurance_cycles if endurance_cycles else 0.0
    return {
        "write_amplification": amplification,
        "max_erase": profile["max"],
        "erase_cv": profile["cv"],
        "endurance_consumed": wear_rate,
    }
