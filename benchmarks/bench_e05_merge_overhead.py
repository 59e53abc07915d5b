"""E5 - Figure/Table: merge-operation breakdown under random writes.

The abstract's central claim: LazyFTL "eliminates the overhead of merge
operations completely".  This experiment counts every merge kind for the
log-block schemes and verifies that the page-mapping schemes - LazyFTL by
construction - perform zero merges, replacing them with cheap conversions.
Its device-time table is the traced flash time by cause, so each row
totals the scheme's device busy time.
"""

from repro.analysis import format_attribution
from repro.obs import Tracer
from repro.sim import HEADLINE_DEVICE, compare_schemes
from repro.sim.report import format_table
from repro.traces import uniform_random

from conftest import N_REQUESTS, emit

SCHEMES = ("BAST", "FAST", "DFTL", "LazyFTL")


def run_experiment():
    """Returns ``(results, attribution)``: the schemes' results and the
    tracer's per-cause run totals."""
    footprint = int(HEADLINE_DEVICE.logical_pages * 0.8)
    trace = uniform_random(N_REQUESTS, footprint, seed=0, name="random")
    tracer = Tracer()
    results = compare_schemes(trace, schemes=SCHEMES, device=HEADLINE_DEVICE,
                              precondition="steady", tracer=tracer)
    return results, tracer.attribution


def test_e05_merge_overhead(benchmark):
    results, attribution = benchmark.pedantic(run_experiment, rounds=1,
                                              iterations=1)
    rows = []
    for scheme in SCHEMES:
        s = results[scheme].ftl_stats
        rows.append([
            scheme,
            s.merges_switch,
            s.merges_partial,
            s.merges_full,
            s.merge_page_copies,
            s.converts,
            s.batched_commits,
        ])
    text = format_table(
        ["scheme", "switch", "partial", "full", "merge copies",
         "conversions", "batched commits"],
        rows,
        title=f"E5: merge breakdown, {N_REQUESTS} random writes",
    )
    avg_batch = (
        results["LazyFTL"].ftl_stats.batched_commits
        / max(1, results["LazyFTL"].ftl_stats.map_writes)
    )
    text += (f"\nLazyFTL commits per mapping-page write: {avg_batch:.1f} "
             "(conversion cost amortised)")
    text += "\n\n" + format_attribution(
        attribution, schemes=SCHEMES,
        title="device-time breakdown: flash time by cause (ms)",
    )
    emit("e05_merge_overhead", text)

    assert results["LazyFTL"].ftl_stats.merges_total == 0
    assert results["DFTL"].ftl_stats.merges_total == 0
    assert results["BAST"].ftl_stats.merges_full > 0
    assert results["FAST"].ftl_stats.merges_full > 0
    # Under pure random writes BAST's merges are dominated by full merges.
    bast = results["BAST"].ftl_stats
    assert bast.merges_full > bast.merges_switch
    assert results["LazyFTL"].ftl_stats.converts > 0
    # Every flash op is counted once: the table totals the busy time.
    for scheme in SCHEMES:
        assert attribution.scheme_summary(scheme)["total_us"] == \
            results[scheme].device_busy_us
