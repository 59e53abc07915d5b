"""Financial1/Financial2-like OLTP workload generators.

The paper evaluates on the UMass/SPC "Financial" traces captured at large
financial institutions.  Those files are not redistributable, so this module
provides synthetic equivalents calibrated to their published characteristics;
``repro.traces.spc`` parses the real files when available.

Published shape of the originals (UMass Trace Repository):

* **Financial1** - OLTP, write-dominated: ~77 % writes, small requests
  (mostly one 2-4 KiB page), strong spatial skew (a small set of hot
  tablespace regions absorbs most updates).
* **Financial2** - OLTP, read-dominated: ~18 % writes, similar sizes/skew.

These are exactly the properties that stress FTLs: random small writes to a
skewed region force log-block merges (BAST/FAST) and mapping-update pressure
(DFTL/LazyFTL), which is why the substitution preserves the comparison.
"""

from __future__ import annotations

import random
from array import array
from typing import Optional

from .model import Trace


def _oltp_trace(
    n_requests: int,
    footprint_pages: int,
    write_ratio: float,
    seed: int,
    name: str,
) -> Trace:
    """Shared OLTP generator: skewed small random I/O.

    The address space is carved into "tablespace" regions; a handful of hot
    regions receive 80 % of accesses, and within a region accesses are
    uniform.  Request sizes are 1 page (90 %) or 2 pages (10 %).
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if footprint_pages < 16:
        raise ValueError("footprint_pages too small for an OLTP layout")
    rng = random.Random(seed)
    n_regions = 16
    region = footprint_pages // n_regions
    hot_regions = [1, 4, 7, 11]  # fixed so runs with equal seeds align
    cold_regions = [i for i in range(n_regions) if i not in hot_regions]
    ops = array("b")
    lpns = array("q")
    npages_col = array("q")
    for _ in range(n_requests):
        if rng.random() < 0.8:
            r = rng.choice(hot_regions)
        else:
            r = rng.choice(cold_regions)
        base = r * region
        npages = 2 if rng.random() < 0.1 else 1
        lpn = base + rng.randrange(max(1, region - npages + 1))
        ops.append(1 if rng.random() < write_ratio else 0)
        lpns.append(lpn)
        npages_col.append(npages)
    return Trace.from_columns(ops, lpns, npages_col, name=name)


def financial1(
    n_requests: int,
    footprint_pages: int = 65536,
    seed: int = 0,
    write_ratio: float = 0.77,
    name: Optional[str] = None,
) -> Trace:
    """Financial1-like trace: write-heavy skewed OLTP."""
    return _oltp_trace(
        n_requests, footprint_pages, write_ratio, seed, name or "financial1"
    )


def financial2(
    n_requests: int,
    footprint_pages: int = 65536,
    seed: int = 0,
    write_ratio: float = 0.18,
    name: Optional[str] = None,
) -> Trace:
    """Financial2-like trace: read-heavy skewed OLTP."""
    return _oltp_trace(
        n_requests, footprint_pages, write_ratio, seed, name or "financial2"
    )
