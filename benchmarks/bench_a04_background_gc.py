"""A4 (ablation) - background GC hides reclamation in idle time.

Under open-loop replay with idle gaps, LazyFTL's background-GC extension
moves garbage collection off the critical path: foreground requests stall
on reclamation less often, cutting tail response times at the cost of
work done during gaps.
"""

from repro.flash import FlashGeometry, NandFlash
from repro.sim import Simulator, build_ftl, default_lazy_config
from repro.sim.report import format_table
from repro.traces import Trace, merge_traces, uniform_random, warmup_fill

from conftest import emit

N = 15000
INTERARRIVAL_US = 1500.0


def run_variant(background_gc):
    flash = NandFlash(FlashGeometry(num_blocks=512, pages_per_block=64,
                                    page_size=512))
    logical = int(flash.geometry.total_pages * 0.8)
    config = default_lazy_config(uba_blocks=16, cba_blocks=4,
                                 background_gc=background_gc)
    ftl = build_ftl("LazyFTL", flash, logical, config=config)
    footprint = int(logical * 0.85)
    closed = uniform_random(N, footprint, seed=0)
    trace = Trace.from_columns(
        closed.ops, closed.lpns, closed.npages,
        [i * INTERARRIVAL_US for i in range(N)],
        name="random-open-loop",
    )
    warm = merge_traces([
        warmup_fill(footprint),
        uniform_random(footprint // 2, footprint, seed=987),
    ], name="warmup")
    return Simulator(ftl).run(trace, warmup=warm)


def test_a04_background_gc(benchmark):
    plain, hidden = benchmark.pedantic(
        lambda: (run_variant(False), run_variant(True)),
        rounds=1, iterations=1,
    )
    rows = []
    for label, r in (("foreground GC only", plain),
                     ("with background GC", hidden)):
        d = r.responses.overall
        rows.append([
            label,
            d.mean,
            d.percentile(99),
            d.percentile(99.9),
            d.max,
            r.device_busy_us / 1000.0,
        ])
    text = format_table(
        ["variant", "mean_us", "p99_us", "p99.9_us", "max_us",
         "device busy ms"],
        rows,
        title=f"A4: background GC under open-loop replay "
              f"(1 req / {INTERARRIVAL_US:.0f} us, {N} writes)",
    )
    emit("a04_background_gc", text)

    assert hidden.responses.overall.percentile(99) < \
        plain.responses.overall.percentile(99)
    assert hidden.responses.overall.mean < plain.responses.overall.mean