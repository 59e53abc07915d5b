"""RAM-footprint accounting across schemes (experiment E9's substrate).

Computes, for a given device size, how much RAM each scheme's translation
structures need - the axis on which LazyFTL/DFTL beat the ideal FTL and
the block-mapping schemes beat everyone (at the price of merges).
"""

from __future__ import annotations

from typing import Dict

from ..flash.geometry import MAP_ENTRY_BYTES, FlashGeometry


def ram_model(
    geometry: FlashGeometry,
    logical_pages: int,
    uba_blocks: int,
    cba_blocks: int,
    cmt_entries: int,
    num_log_blocks: int = 16,
) -> Dict[str, int]:
    """Analytic RAM footprint (bytes) of each scheme's mapping structures.

    Follows the conventions used throughout the FTL literature: 4-byte
    physical addresses, 8 bytes per cached (lpn, ppn) pair.  The staging
    areas and the CMT have no default: a caller states the configuration
    it simulates (:func:`scalability_table` takes the runner's).
    """
    pages = geometry.pages_per_block
    entries_per_page = geometry.map_entries_per_page
    num_lbns = (logical_pages + pages - 1) // pages
    num_tvpns = (logical_pages + entries_per_page - 1) // entries_per_page
    umt_capacity = (uba_blocks + cba_blocks) * pages
    return {
        "ideal": logical_pages * MAP_ENTRY_BYTES,
        "BAST": num_lbns * MAP_ENTRY_BYTES
        + num_log_blocks * (MAP_ENTRY_BYTES + 2 * pages),
        "FAST": num_lbns * MAP_ENTRY_BYTES
        + num_log_blocks * pages * 2 * MAP_ENTRY_BYTES,
        "DFTL": cmt_entries * 2 * MAP_ENTRY_BYTES
        + num_tvpns * MAP_ENTRY_BYTES,
        "LazyFTL": umt_capacity * 2 * MAP_ENTRY_BYTES
        + num_tvpns * MAP_ENTRY_BYTES,
    }


def scalability_table(
    capacities_mib: list,
    pages_per_block: int = 64,
    page_size: int = 2048,
    logical_fraction: float = 0.85,
) -> Dict[int, Dict[str, int]]:
    """RAM footprint of each scheme as the device grows, in the
    configuration :func:`~repro.sim.runner.run_scheme` simulates: LazyFTL's
    areas from ``lazy_headline_options``, DFTL's CMT at RAM parity with
    them (``dftl_parity_options``).

    The ideal FTL's RAM grows linearly with capacity while LazyFTL's and
    DFTL's grow only with the (fixed) UMT / CMT plus the small GTD - the
    paper's "high scalability" claim in table form.  Each capacity also
    carries ``"validity map"``: one bit per physical page, which every
    page-mapping scheme's GC reads to tell live pages from dead ones and
    no ``ram_bytes()`` counts.
    """
    from ..flash.geometry import geometry_for_capacity
    from ..sim.runner import dftl_parity_options, lazy_headline_options

    table = {}
    for mib in capacities_mib:
        geometry = geometry_for_capacity(
            mib, pages_per_block=pages_per_block, page_size=page_size
        )
        config = lazy_headline_options(geometry.num_blocks)["config"]
        cmt = dftl_parity_options(geometry.num_blocks, pages_per_block)
        logical = int(geometry.total_pages * logical_fraction)
        table[mib] = {
            **ram_model(geometry, logical, config.uba_blocks,
                        config.cba_blocks, cmt["cmt_entries"]),
            "validity map": (geometry.total_pages + 7) // 8,
        }
    return table
