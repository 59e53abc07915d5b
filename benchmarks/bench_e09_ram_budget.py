"""E9 - Figure: response time versus RAM budget (DFTL CMT vs LazyFTL UMT).

Both demand-based schemes trade RAM for translation overhead: DFTL through
its CMT capacity, LazyFTL through the UBA size (which bounds the UMT).
This experiment sweeps matched RAM budgets over a write-heavy OLTP
workload, plus the analytic RAM table that shows why the ideal FTL does
not scale ("high scalability" claim): each scheme in the configuration
the sweeps above simulate, and the one-bit-per-page validity map every
page-mapping GC reads besides.
"""

from repro.analysis import scalability_table
from repro.sim import HEADLINE_DEVICE, default_lazy_config, sweep
from repro.sim.report import format_series, format_table
from repro.traces import financial1

from conftest import N_REQUESTS, emit

#: RAM budgets expressed in mapping entries (8 bytes each).  For LazyFTL a
#: budget of N entries means a UBA of N/pages_per_block blocks (CBA fixed).
BUDGET_ENTRIES = (512, 1024, 2048, 4096)


def run_sweeps():
    footprint = int(HEADLINE_DEVICE.logical_pages * 0.8)
    trace = financial1(N_REQUESTS, footprint, seed=0)
    pages = HEADLINE_DEVICE.pages_per_block
    dftl = sweep(
        "DFTL",
        trace_of=lambda n: trace,
        parameter_values=BUDGET_ENTRIES,
        options_of=lambda n: {"cmt_entries": n},
        device_of=lambda n: HEADLINE_DEVICE,
        precondition="steady",
    )
    lazy = sweep(
        "LazyFTL",
        trace_of=lambda n: trace,
        parameter_values=BUDGET_ENTRIES,
        options_of=lambda n: {
            "config": default_lazy_config(
                uba_blocks=max(2, n // pages - 4), cba_blocks=4
            )
        },
        device_of=lambda n: HEADLINE_DEVICE,
        precondition="steady",
    )
    return dftl, lazy


def test_e09_ram_budget(benchmark):
    dftl, lazy = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    series = {
        "DFTL mean (us)": [r.mean_response_us for r in dftl],
        "LazyFTL mean (us)": [r.mean_response_us for r in lazy],
        "DFTL map reads": [float(r.ftl_stats.map_reads) for r in dftl],
        "LazyFTL map reads": [float(r.ftl_stats.map_reads) for r in lazy],
    }
    text = format_series(
        "scheme \\ RAM budget (entries)", list(BUDGET_ENTRIES), series,
        title=f"E9: RAM budget sweep, financial1 ({N_REQUESTS} requests)",
    )
    ram = scalability_table([64, 256, 1024, 4096, 32768])
    rows = [
        [f"{mib} MiB"] + [ram[mib][s] // 1024 for s in
                          ("ideal", "DFTL", "LazyFTL", "validity map")]
        for mib in (64, 256, 1024, 4096, 32768)
    ]
    text += "\n\n" + format_table(
        ["device", "ideal KiB", "DFTL KiB", "LazyFTL KiB",
         "validity map KiB"],
        rows,
        title="analytic RAM footprint vs device capacity (scalability)",
    )
    emit("e09_ram_budget", text)

    # At every matched budget LazyFTL is at least competitive with DFTL.
    for d, l in zip(dftl, lazy):
        assert l.mean_response_us <= d.mean_response_us * 1.10
    # The ideal FTL's RAM grows ~linearly with capacity; LazyFTL's does
    # not, and equals DFTL's (RAM parity) at every capacity.
    ram_small, ram_big = ram[64], ram[32768]
    assert ram_big["ideal"] / ram_small["ideal"] > 100
    assert ram_big["LazyFTL"] / ram_small["LazyFTL"] < 100
    assert all(ram[mib]["LazyFTL"] == ram[mib]["DFTL"] for mib in ram)
