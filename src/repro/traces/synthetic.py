"""Synthetic workload generators.

These produce the random / sequential / skewed access patterns that the FTL
literature uses to separate scheme behaviours:

* pure random small writes are the worst case for log-block FTLs (BAST/FAST
  full merges) and the showcase for LazyFTL's merge-free design;
* pure sequential writes are everyone's best case (switch merges);
* hot/cold and zipf skew drive garbage-collection efficiency and the hot-cold
  separation logic of LazyFTL's update/cold areas.

All generators are deterministic given ``seed`` and fill a trace's
columns directly (no ``IORequest`` allocation).
"""

from __future__ import annotations

import random
from array import array
from typing import Optional

from .model import Trace


def _sizes(rng: random.Random, max_pages: int) -> int:
    """Request size in pages: geometric-ish, capped, biased to small."""
    if max_pages <= 1:
        return 1
    # 70 % single page, then geometric tail.
    size = 1
    while size < max_pages and rng.random() < 0.3:
        size += 1
    return size


def _columns(n: int) -> "tuple[array, array, array]":
    """Zeroed op / lpn / npages columns of ``n`` requests, for generators
    that store each request by index."""
    return array("b", [0]) * n, array("q", [0]) * n, array("q", [0]) * n


def uniform_random(
    n_requests: int,
    footprint_pages: int,
    write_ratio: float = 1.0,
    max_request_pages: int = 1,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Uniformly random accesses over ``footprint_pages`` logical pages.

    The classic torture test: with ``write_ratio=1.0`` every write lands in a
    random logical block, defeating any block-level locality assumption.
    """
    _check_common(n_requests, footprint_pages, write_ratio)
    rng = random.Random(seed)
    draw = rng.random
    randrange = rng.randrange
    sized = max_request_pages > 1  # else _sizes draws nothing: 1 page
    npages = 1
    end = footprint_pages
    ops, lpns, npages_col = _columns(n_requests)
    for i in range(n_requests):
        if sized:
            npages = _sizes(rng, max_request_pages)
            end = max(1, footprint_pages - npages + 1)
        lpn = randrange(end)
        ops[i] = draw() < write_ratio
        lpns[i] = lpn
        npages_col[i] = min(npages, footprint_pages - lpn)
    return Trace.from_columns(ops, lpns, npages_col,
                              name=name or f"random-w{write_ratio:.2f}")


def sequential(
    n_requests: int,
    footprint_pages: int,
    write_ratio: float = 1.0,
    request_pages: int = 1,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Sequential sweep over the footprint, wrapping around.

    Log-block schemes handle this via cheap switch merges, so it is the
    baseline where all FTLs should be close to the ideal scheme.
    """
    _check_common(n_requests, footprint_pages, write_ratio)
    _check_request_pages(request_pages)
    rng = random.Random(seed)
    ops = array("b")
    lpns = array("q")
    npages_col = array("q")
    lpn = 0
    for _ in range(n_requests):
        npages = min(request_pages, footprint_pages - lpn)
        ops.append(1 if rng.random() < write_ratio else 0)
        lpns.append(lpn)
        npages_col.append(npages)
        lpn += npages
        if lpn >= footprint_pages:
            lpn = 0
    return Trace.from_columns(ops, lpns, npages_col,
                              name=name or "sequential")


def hot_cold(
    n_requests: int,
    footprint_pages: int,
    write_ratio: float = 1.0,
    hot_fraction: float = 0.2,
    hot_probability: float = 0.8,
    max_request_pages: int = 1,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Two-temperature skew: ``hot_probability`` of accesses hit the hot set.

    The default 80/20 rule concentrates most writes on 20 % of the space,
    giving garbage collection cheap victims and LazyFTL's cold-block area a
    realistic stream of cold relocations.
    """
    _check_common(n_requests, footprint_pages, write_ratio)
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in (0, 1]")
    if not 0.0 <= hot_probability <= 1.0:
        raise ValueError("hot_probability must be in [0, 1]")
    rng = random.Random(seed)
    draw = rng.random
    randrange = rng.randrange
    hot_pages = max(1, int(footprint_pages * hot_fraction))
    sized = max_request_pages > 1  # else _sizes draws nothing: 1 page
    npages = 1
    hot_end = hot_pages
    cold_end = max(hot_pages + 1, footprint_pages)
    ops, lpns, npages_col = _columns(n_requests)
    for i in range(n_requests):
        if sized:
            npages = _sizes(rng, max_request_pages)
            hot_end = max(1, hot_pages - npages + 1)
            cold_end = max(hot_pages + 1, footprint_pages - npages + 1)
        if draw() < hot_probability:
            lpn = randrange(hot_end)
        else:
            lpn = randrange(hot_pages, cold_end)
        ops[i] = draw() < write_ratio
        lpns[i] = lpn
        npages_col[i] = min(npages, footprint_pages - lpn)
    return Trace.from_columns(ops, lpns, npages_col, name=name or "hot-cold")


def zipf(
    n_requests: int,
    footprint_pages: int,
    write_ratio: float = 1.0,
    theta: float = 0.99,
    max_request_pages: int = 1,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Zipf-skewed accesses with skew parameter ``theta`` in (0, 1).

    Uses the standard inverse-CDF approximation ``rank = N * u**(1/(1-theta))``
    and scatters ranks over the address space with a fixed odd multiplier so
    hot pages are not physically adjacent.
    """
    _check_common(n_requests, footprint_pages, write_ratio)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0, 1)")
    rng = random.Random(seed)
    scatter = 2654435761 % footprint_pages or 1  # Knuth multiplicative hash
    if scatter % 2 == 0:
        scatter += 1
    ops = array("b")
    lpns = array("q")
    npages_col = array("q")
    exponent = 1.0 / (1.0 - theta)
    for _ in range(n_requests):
        u = rng.random()
        rank = int(footprint_pages * (u ** exponent))
        rank = min(rank, footprint_pages - 1)
        lpn = (rank * scatter) % footprint_pages
        npages = _sizes(rng, max_request_pages)
        npages = min(npages, footprint_pages - lpn)
        ops.append(1 if rng.random() < write_ratio else 0)
        lpns.append(lpn)
        npages_col.append(npages)
    return Trace.from_columns(ops, lpns, npages_col,
                              name=name or f"zipf-{theta}")


def mixed(
    n_requests: int,
    footprint_pages: int,
    sequential_fraction: float = 0.5,
    write_ratio: float = 0.7,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Interleaves sequential runs with random accesses.

    Models file-system behaviour: bulk writes plus scattered metadata
    updates.  ``sequential_fraction`` of requests extend the current run.
    """
    _check_common(n_requests, footprint_pages, write_ratio)
    if not 0.0 <= sequential_fraction <= 1.0:
        raise ValueError("sequential_fraction must be in [0, 1]")
    rng = random.Random(seed)
    ops = array("b")
    lpns = array("q")
    cursor = 0
    for _ in range(n_requests):
        if rng.random() < sequential_fraction:
            lpn = cursor
            cursor = (cursor + 1) % footprint_pages
        else:
            lpn = rng.randrange(footprint_pages)
            cursor = (lpn + 1) % footprint_pages
        ops.append(1 if rng.random() < write_ratio else 0)
        lpns.append(lpn)
    return Trace.from_columns(ops, lpns, array("q", [1]) * n_requests,
                              name=name or "mixed")


def warmup_fill(
    footprint_pages: int,
    request_pages: int = 8,
    name: str = "warmup-fill",
) -> Trace:
    """Sequentially write the whole footprint once.

    Used before measured runs so that every logical page has a physical copy
    and steady-state garbage collection is reached quickly - the standard
    pre-conditioning step of SSD evaluations.
    """
    if footprint_pages <= 0:
        raise ValueError("footprint_pages must be positive")
    _check_request_pages(request_pages)
    lpns = array("q", range(0, footprint_pages, request_pages))
    npages = array("q", [request_pages]) * len(lpns)
    npages[-1] = footprint_pages - lpns[-1]
    return Trace.from_columns(array("b", [1]) * len(lpns), lpns, npages,
                              name=name)


def _check_common(n_requests: int, footprint_pages: int, write_ratio: float) -> None:
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if footprint_pages <= 0:
        raise ValueError("footprint_pages must be positive")
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError("write_ratio must be in [0, 1]")


def _check_request_pages(request_pages: int) -> None:
    if request_pages < 1:
        raise ValueError("request_pages must be >= 1")
