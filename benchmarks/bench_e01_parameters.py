"""E1 - Table: simulation parameters.

Reproduces the evaluation-setup table: flash geometry, operation
latencies, scheme configurations and RAM budgets.  (The paper's setup is
a 32 GB small-block SLC device with 25 us / 200 us / 1.5 ms latencies; we
run its ~1000x scaled twin - see DESIGN.md.)
"""

from repro.flash import SLC_TIMING
from repro.sim import (DEFAULT_OPTIONS, HEADLINE_DEVICE, dftl_parity_options,
                       lazy_headline_options)
from repro.sim.report import format_table

from conftest import emit


def build_parameter_table() -> str:
    d = HEADLINE_DEVICE
    lazy_cfg = lazy_headline_options(d.num_blocks)["config"]
    rows = [
        ["flash blocks", d.num_blocks],
        ["pages per block", d.pages_per_block],
        ["page size (B)", d.page_size],
        ["raw capacity (MiB)",
         d.num_blocks * d.pages_per_block * d.page_size // (1 << 20)],
        ["logical space (pages)", d.logical_pages],
        ["overprovisioning", f"{1 - d.logical_fraction:.0%}"],
        ["page read (us)", SLC_TIMING.page_read_us],
        ["page program (us)", SLC_TIMING.page_program_us],
        ["block erase (us)", SLC_TIMING.block_erase_us],
        ["mapping entries / GMT page", d.page_size // 4],
        ["LazyFTL UBA blocks (m_u)", lazy_cfg.uba_blocks],
        ["LazyFTL CBA blocks (m_c)", lazy_cfg.cba_blocks],
        ["DFTL CMT entries (RAM parity)",
         dftl_parity_options(d.num_blocks, d.pages_per_block)["cmt_entries"]],
        ["BAST log blocks", DEFAULT_OPTIONS["BAST"]["num_log_blocks"]],
        ["FAST RW log blocks",
         DEFAULT_OPTIONS["FAST"]["num_rw_log_blocks"]],
    ]
    return format_table(["parameter", "value"], rows,
                        title="E1: simulation parameters")


def test_e01_parameters(benchmark):
    text = benchmark.pedantic(build_parameter_table, rounds=1, iterations=1)
    emit("e01_parameters", text)
    assert "E1" in text
