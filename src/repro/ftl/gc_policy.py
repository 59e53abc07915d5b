"""Garbage-collection victim selection policies.

All shipped FTLs default to the greedy policy (fewest valid pages first),
the choice of the DFTL/LazyFTL line of work.  Cost-benefit (age-weighted)
selection is provided for the ablation benchmarks.

Policies work on physical block numbers plus the device's per-block
valid-count array (``flash.valid_count``) - all the validity metadata a
victim scan needs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence


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


def select_cost_benefit(
    candidates: Iterable[int],
    valid_count: Sequence[int],
    pages_per_block: int,
    age_of: Callable[[int], float],
) -> Optional[int]:
    """Classic cost-benefit victim selection (Rosenblum & Ousterhout).

    Maximises ``benefit/cost = age * (1 - u) / (1 + u)`` where ``u`` is the
    block's valid-page utilisation.  ``age_of`` maps a pbn to a staleness
    value (e.g. current sequence number minus the block's last-program
    sequence).
    """
    best: Optional[int] = None
    best_score = float("-inf")
    for pbn in candidates:
        u = valid_count[pbn] / pages_per_block
        if u >= 1.0:
            score = float("-inf")  # nothing reclaimable
        else:
            score = age_of(pbn) * (1.0 - u) / (1.0 + u)
        if score > best_score or (
            score == best_score and best is not None and pbn < best
        ):
            best = pbn
            best_score = score
    return best
