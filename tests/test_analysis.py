"""Tests for the analysis package (compare / wear / ram)."""

import pytest

from repro.analysis import (
    COMPARISON_HEADERS,
    comparison_rows,
    erase_histogram,
    lifetime_projection,
    optimality_gap,
    ram_model,
    scalability_table,
    wear_profile,
)
from repro.flash import FlashGeometry, NandFlash, UNIT_TIMING
from repro.ftl import PageFTL
from repro.sim import Simulator
from repro.traces import uniform_random


def run_small():
    flash = NandFlash(FlashGeometry(num_blocks=32, pages_per_block=8),
                      timing=UNIT_TIMING)
    ftl = PageFTL(flash, logical_pages=128)
    sim = Simulator(ftl)
    return sim.run(uniform_random(1000, 128, seed=0))


class TestCompare:
    def test_comparison_rows_order_and_width(self):
        result = run_small()
        rows = comparison_rows({"ideal": result})
        assert len(rows) == 1
        assert rows[0][0] == "ideal"
        assert len(rows[0]) == len(COMPARISON_HEADERS)

    def test_optimality_gap_identity(self):
        result = run_small()
        gap = optimality_gap({"ideal": result})
        assert gap["ideal"] == 1.0


class TestWear:
    def test_wear_profile_excludes_blocks(self):
        flash = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=1))
        flash.program_page(0, "x")
        flash.invalidate_page(0)
        flash.erase_block(0)
        with_all = wear_profile(flash)
        without = wear_profile(flash, exclude=[0])
        assert with_all["total"] == 1
        assert without["total"] == 0

    def test_erase_histogram_uniform(self):
        flash = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=1))
        hist = erase_histogram(flash)
        assert hist == [(0, 0, 4)]

    def test_erase_histogram_bins(self):
        flash = NandFlash(FlashGeometry(num_blocks=3, pages_per_block=1))
        for count, block in ((1, 0), (5, 1)):
            for _ in range(count):
                flash.erase_block(block)
        hist = erase_histogram(flash, bins=5)
        assert sum(members for _, _, members in hist) == 3

    def test_lifetime_projection(self):
        result = run_small()
        flash_ftl = result
        flash = NandFlash(FlashGeometry(num_blocks=32, pages_per_block=8),
                          timing=UNIT_TIMING)
        ftl = PageFTL(flash, logical_pages=128)
        sim = Simulator(ftl)
        sim.run(uniform_random(1000, 128, seed=0))
        proj = lifetime_projection(flash, host_pages_written=1000)
        assert proj["write_amplification"] >= 1.0
        assert proj["max_erase"] > 0

    def test_lifetime_requires_positive_writes(self):
        flash = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=1))
        with pytest.raises(ValueError):
            lifetime_projection(flash, host_pages_written=0)


class TestRamModel:
    GEOMETRY = FlashGeometry(num_blocks=1024, pages_per_block=64,
                             page_size=2048)
    #: UBA 32 / CBA 4 and the CMT at parity: the headline configuration.
    AREAS = dict(uba_blocks=32, cba_blocks=4, cmt_entries=36 * 64)

    def test_ideal_is_linear_in_logical_pages(self):
        model = ram_model(self.GEOMETRY, logical_pages=10000, **self.AREAS)
        assert model["ideal"] == 40000

    def test_lazyftl_much_smaller_than_ideal(self):
        logical = self.GEOMETRY.total_pages * 8 // 10
        model = ram_model(self.GEOMETRY, logical_pages=logical, **self.AREAS)
        assert model["LazyFTL"] < model["ideal"] / 5

    def test_all_schemes_present(self):
        model = ram_model(self.GEOMETRY, logical_pages=1000, **self.AREAS)
        assert set(model) == {"ideal", "BAST", "FAST", "DFTL", "LazyFTL"}

    def test_scalability_gap_widens_with_capacity(self):
        table = scalability_table([64, 1024])
        small = table[64]
        large = table[1024]
        ratio_small = small["ideal"] / small["LazyFTL"]
        ratio_large = large["ideal"] / large["LazyFTL"]
        assert ratio_large > ratio_small

    def test_table_is_the_simulated_configuration(self):
        """E9's table prices what ``run_scheme`` simulates: DFTL's CMT at
        RAM parity with LazyFTL's UMT, so the two agree at every
        capacity; the validity map is one bit per physical page."""
        table = scalability_table([64, 32768])
        for mib, row in table.items():
            assert row["LazyFTL"] == row["DFTL"]
            assert row["validity map"] == mib * 1024 * 1024 // 2048 // 8
        assert table[64]["LazyFTL"] // 1024 == 18
        assert table[32768]["LazyFTL"] // 1024 == 126
