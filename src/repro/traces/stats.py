"""Trace characterisation (experiment E2's table).

Computes the workload properties that explain FTL behaviour: write ratio,
footprint, request sizes, sequentiality, and access-skew concentration.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from .model import Trace


def characterize(trace: Trace) -> Dict[str, float]:
    """Return the E2 characteristics row for one trace.

    Keys:
        requests, page_ops, write_ratio, footprint_pages,
        mean_request_pages, sequentiality (fraction of requests starting
        exactly where the previous ended), hot20_share (fraction of page
        accesses landing on the most-touched 20 % of pages).
    """
    n = len(trace)
    if n == 0:
        return {
            "requests": 0,
            "page_ops": 0,
            "write_ratio": 0.0,
            "footprint_pages": 0,
            "mean_request_pages": 0.0,
            "sequentiality": 0.0,
            "hot20_share": 0.0,
        }
    touches: Counter = Counter()
    sequential_hits = 0
    prev_end = None
    for lpn, npages in zip(trace.lpns, trace.npages):
        touches.update(range(lpn, lpn + npages))
        if lpn == prev_end:
            sequential_hits += 1
        prev_end = lpn + npages
    total_touches = sum(touches.values())
    footprint = len(touches)
    hot_n = max(1, footprint // 5)
    hot_share = (
        sum(c for _, c in touches.most_common(hot_n)) / total_touches
        if total_touches
        else 0.0
    )
    return {
        "requests": n,
        "page_ops": trace.page_ops,
        "write_ratio": trace.write_ratio,
        "footprint_pages": footprint,
        "mean_request_pages": trace.page_ops / n,
        "sequentiality": sequential_hits / n,
        "hot20_share": hot_share,
    }
