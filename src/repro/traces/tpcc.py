"""TPC-C-like trace generator.

A mid-point between the write-heavy Financial and read-heavy Websearch
extremes: mixed reads/writes over table-shaped regions with non-uniform
heat (customer/stock hot, history append-only, item read-only), the shape
commonly reported for TPC-C storage traces.
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple, Optional

from .model import Trace


class _Table(NamedTuple):
    name: str
    fraction: float      # share of the logical address space
    access_weight: float  # share of requests
    write_ratio: float
    append_only: bool


_TABLES = (
    _Table("warehouse", 0.01, 0.04, 0.50, False),
    _Table("district", 0.01, 0.06, 0.55, False),
    _Table("customer", 0.18, 0.25, 0.45, False),
    _Table("stock", 0.30, 0.30, 0.50, False),
    _Table("orders", 0.15, 0.15, 0.60, False),
    _Table("history", 0.10, 0.08, 1.00, True),
    _Table("item", 0.25, 0.12, 0.00, False),
)


def tpcc(
    n_requests: int,
    footprint_pages: int = 131072,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Mixed OLTP workload with table-shaped locality (~45 % writes)."""
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if footprint_pages < len(_TABLES) * 8:
        raise ValueError("footprint_pages too small for the table layout")
    rng = random.Random(seed)
    # Lay tables out contiguously.
    extents = []
    base = 0
    for t in _TABLES:
        size = max(4, int(footprint_pages * t.fraction))
        extents.append((t, base, size))
        base += size
    weights = [t.access_weight for t, _, _ in extents]
    cursors = {t.name: 0 for t in _TABLES}
    ops = array("b")
    lpns = array("q")
    for _ in range(n_requests):
        t, start, size = rng.choices(extents, weights=weights, k=1)[0]
        if t.append_only:
            lpn = start + cursors[t.name]
            cursors[t.name] = (cursors[t.name] + 1) % size
        else:
            lpn = start + rng.randrange(size)
        ops.append(1 if rng.random() < t.write_ratio else 0)
        lpns.append(lpn)
    return Trace.from_columns(ops, lpns, array("q", [1]) * n_requests,
                              name=name or "tpcc")
