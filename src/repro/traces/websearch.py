"""Websearch-like trace generator.

The UMass/SPC "Websearch" traces come from a search engine's index-serving
tier: ~99 % reads, moderately large requests (8-16 KiB), zipf-skewed over a
large footprint.  Reads exercise the *translation fetch* path - DFTL's CMT
misses versus LazyFTL's GMT page reads - with essentially no GC pressure,
the complementary regime to Financial1.
"""

from __future__ import annotations

import random
from array import array
from typing import Optional

from .model import Trace


def websearch(
    n_requests: int,
    footprint_pages: int = 262144,
    seed: int = 0,
    write_ratio: float = 0.01,
    theta: float = 0.8,
    name: Optional[str] = None,
) -> Trace:
    """Read-dominant zipf workload with multi-page requests."""
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if footprint_pages <= 8:
        raise ValueError("footprint_pages too small")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    rng = random.Random(seed)
    exponent = 1.0 / (1.0 - theta)
    scatter = 2654435761 % footprint_pages or 1
    if scatter % 2 == 0:
        scatter += 1
    ops = array("b")
    lpns = array("q")
    npages_col = array("q")
    for _ in range(n_requests):
        u = rng.random()
        rank = min(int(footprint_pages * (u ** exponent)),
                   footprint_pages - 1)
        lpn = (rank * scatter) % footprint_pages
        npages = rng.choice((4, 4, 8, 8, 8, 16))  # 8-32 KiB on 2 KiB pages
        npages = min(npages, footprint_pages - lpn)
        ops.append(1 if rng.random() < write_ratio else 0)
        lpns.append(lpn)
        npages_col.append(npages)
    return Trace.from_columns(ops, lpns, npages_col,
                              name=name or "websearch")
