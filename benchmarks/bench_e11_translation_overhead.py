"""E11 - Table: translation (mapping-update) overhead and ablations.

Breaks LazyFTL's mapping traffic down and ablates the design choices
DESIGN.md calls out:

* **global batching** (commit all UMT entries of a GMT page together) -
  the mechanism that amortises conversion cost;
* the **per-request reuse** of a held GMT page (``LazyFTL.read_run``, PR
  22; on in every other row) - its row drives LazyFTL through the page
  loop instead.
"""

from repro.sim import HEADLINE_DEVICE, default_lazy_config, run_scheme
from repro.sim.report import format_table
from repro.traces import financial1

from conftest import N_REQUESTS, emit, lazy_by_page

NO_REUSE = "no per-request GMT reuse"
VARIANTS = (
    ("base (global batching)", {}),
    ("no global batching", {"global_batching": False}),
    (NO_REUSE, {}),
    ("cheapest-convert policy", {"convert_policy": "cheapest"}),
)


def run_variants():
    footprint = int(HEADLINE_DEVICE.logical_pages * 0.8)
    trace = financial1(N_REQUESTS, footprint, seed=0)
    results = []
    for label, overrides in VARIANTS:
        config = default_lazy_config(uba_blocks=32, cba_blocks=4,
                                     **overrides)
        def run():
            return run_scheme("LazyFTL", trace, device=HEADLINE_DEVICE,
                              precondition="steady", config=config)
        results.append((label, lazy_by_page(run) if label == NO_REUSE
                        else run()))
    return results


def test_e11_translation_overhead(benchmark):
    results = benchmark.pedantic(run_variants, rounds=1, iterations=1)
    rows = []
    for label, r in results:
        s = r.ftl_stats
        rows.append([
            label,
            r.mean_response_us,
            s.map_reads,
            s.map_writes,
            s.batched_commits / max(1, s.map_writes),
            s.converts,
        ])
    text = format_table(
        ["variant", "mean_us", "map reads", "map writes",
         "commits/map write", "conversions"],
        rows,
        title=f"E11: LazyFTL translation overhead, financial1 "
              f"({N_REQUESTS} requests)",
    )
    emit("e11_translation_overhead", text)

    by_label = dict(results)
    base = by_label["base (global batching)"]
    unbatched = by_label["no global batching"]
    # Global batching must reduce mapping writes substantially.
    assert base.ftl_stats.map_writes < unbatched.ftl_stats.map_writes * 0.8
    assert base.mean_response_us <= unbatched.mean_response_us
    no_reuse = by_label[NO_REUSE]
    assert base.ftl_stats.map_reads < no_reuse.ftl_stats.map_reads
    assert base.ftl_stats.map_writes == no_reuse.ftl_stats.map_writes
