"""Tests for the ideal page-mapping FTL."""

import random

import pytest

from repro.flash import FlashGeometry, NandFlash, PageState, UNIT_TIMING
from repro.ftl.pool import OutOfBlocksError
from repro.ftl.pure_page import PageFTL

from .ftl_conformance import FTLConformance


class TestPageFTLConformance(FTLConformance):
    def make_ftl(self, flash):
        return PageFTL(flash, logical_pages=self.LOGICAL_PAGES)


class TestPageFTLSpecifics:
    def make(self, blocks=16, pages=8, logical=64):
        flash = NandFlash(
            FlashGeometry(num_blocks=blocks, pages_per_block=pages),
            timing=UNIT_TIMING,
        )
        return PageFTL(flash, logical_pages=logical)

    def test_ram_is_four_bytes_per_logical_page(self):
        ftl = self.make(logical=64)
        assert ftl.ram_bytes() == 64 * 4

    def test_no_mapping_flash_traffic(self):
        """The ideal FTL never reads or writes mapping pages on flash."""
        ftl = self.make()
        rng = random.Random(0)
        for i in range(400):
            ftl.write(rng.randrange(64), i)
        assert ftl.stats.map_reads == 0
        assert ftl.stats.map_writes == 0

    def test_write_latency_is_one_program_without_gc(self):
        ftl = self.make()
        assert ftl.write(0, "x") == 1.0  # UNIT timing: one program

    def test_read_latency_is_one_read(self):
        ftl = self.make()
        ftl.write(0, "x")
        assert ftl.read(0).latency_us == 1.0

    def test_gc_copies_accounted(self):
        ftl = self.make()
        rng = random.Random(0)
        for i in range(1000):
            ftl.write(rng.randrange(64), i)
        assert ftl.stats.gc_runs > 0
        assert ftl.stats.gc_erases >= ftl.stats.gc_runs

    def test_never_merges(self):
        ftl = self.make()
        for i in range(500):
            ftl.write(i % 64, i)
        assert ftl.stats.merges_total == 0

    def test_device_too_small_rejected(self):
        flash = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=8))
        with pytest.raises(ValueError):
            PageFTL(flash, logical_pages=32)

    def test_full_logical_space_rejected(self):
        # logical == physical leaves no GC slack
        flash = NandFlash(FlashGeometry(num_blocks=8, pages_per_block=8))
        with pytest.raises(ValueError):
            PageFTL(flash, logical_pages=64)

    def test_bad_threshold_rejected(self):
        flash = NandFlash(FlashGeometry(num_blocks=16, pages_per_block=8))
        with pytest.raises(ValueError):
            PageFTL(flash, logical_pages=64, gc_free_threshold=1)

    def test_old_copies_invalidated(self):
        ftl = self.make()
        ftl.write(5, "a")
        ftl.write(5, "b")
        flash = ftl.flash
        valid_for_5 = [
            ppn for ppn, lpn in enumerate(flash.oob_lpn)
            if flash.page_states[ppn] == PageState.VALID and lpn == 5
        ]
        assert len(valid_for_5) == 1
