"""Cross-scheme result analysis used by benchmarks and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..sim.simulator import SimulationResult


def comparison_rows(
    results: Dict[str, SimulationResult],
    order: Sequence[str] = ("BAST", "FAST", "superblock", "DFTL",
                            "LazyFTL", "ideal"),
) -> List[list]:
    """Rows for the headline table: one per scheme, paper order."""
    rows = []
    for scheme in order:
        if scheme not in results:
            continue
        r = results[scheme].row()
        rows.append([
            scheme,
            r["mean_us"],
            r["p99_us"],
            r["max_us"],
            int(r["erases"]),
            int(r["merges"]),
            int(r["gc_copies"]),
            int(r["map_reads"]),
            int(r["map_writes"]),
            int(r["map_gc_copies"]),
        ])
    return rows


COMPARISON_HEADERS = [
    "scheme", "mean_us", "p99_us", "max_us",
    "erases", "merges", "copies", "map_rd", "map_wr", "map_gc",
]


def optimality_gap(results: Dict[str, SimulationResult]) -> Dict[str, float]:
    """Each scheme's mean response as a multiple of the ideal FTL's.

    LazyFTL "very close to the theoretically optimal solution" means its
    entry here is close to 1.0.
    """
    ideal = results["ideal"].mean_response_us
    if ideal <= 0:
        raise ValueError("ideal scheme recorded a zero mean response")
    return {
        scheme: result.mean_response_us / ideal
        for scheme, result in results.items()
    }
