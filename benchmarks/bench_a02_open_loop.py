"""A2 (ablation) - open-loop replay: merge stalls as queueing delay.

The headline benchmarks replay closed-loop (response == service).  Real
trace timestamps make requests queue behind a busy device, so one FAST
full merge delays the requests after it.  This ablation offers the same
workload at a fixed arrival rate and reports the queueing-inflated
response times.
"""

from repro.flash import FlashGeometry, NandFlash
from repro.sim import Simulator, build_ftl
from repro.sim.report import format_series
from repro.traces import Trace, uniform_random, warmup_fill

from conftest import emit

SCHEMES = ("FAST", "DFTL", "LazyFTL")
N = 15000
INTERARRIVAL_US = 450.0  # comfortably above the 200 us program time


def run_experiment():
    results = {}
    for scheme in SCHEMES:
        flash = NandFlash(FlashGeometry(num_blocks=512, pages_per_block=64,
                                        page_size=512))
        logical = int(flash.geometry.total_pages * 0.8)
        options = {"FAST": {"num_rw_log_blocks": 16},
                   "DFTL": {"cmt_entries": 2304}}.get(scheme, {})
        ftl = build_ftl(scheme, flash, logical, **options)
        footprint = int(logical * 0.8)
        closed = uniform_random(N, footprint, seed=0)
        trace = Trace.from_columns(
            closed.ops, closed.lpns, closed.npages,
            [i * INTERARRIVAL_US for i in range(N)],
            name="random-open-loop",
        )
        sim = Simulator(ftl)
        results[scheme] = sim.run(trace, warmup=warmup_fill(footprint))
    return results


def test_a02_open_loop(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    series = {
        "mean response (us)": [results[s].mean_response_us for s in SCHEMES],
        "p99 (us)": [results[s].responses.overall.percentile(99)
                     for s in SCHEMES],
        "max (us)": [results[s].responses.overall.max for s in SCHEMES],
    }
    text = format_series(
        "metric \\ scheme", list(SCHEMES), series,
        title=f"A2: open-loop replay at 1 request / {INTERARRIVAL_US:.0f} us "
              f"({N} random writes)",
    )
    emit("a02_open_loop", text)

    # Queueing amplifies FAST's stalls into the mean, not only the max.
    assert results["FAST"].mean_response_us > \
        results["LazyFTL"].mean_response_us * 2
    assert results["LazyFTL"].responses.overall.max < \
        results["FAST"].responses.overall.max
