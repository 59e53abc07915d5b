"""Tests for bad-block management at the chip and LazyFTL's anchors.

Wear-out and end-of-life behaviour is part of the contract every scheme
obeys: see ``FTLConformance.test_wear_out_retired_without_data_loss`` and
``test_device_end_of_life_raises_cleanly`` in tests/ftl_conformance.py.
"""

import pytest

from repro.core import LazyConfig, LazyFTL
from repro.flash import (
    BadBlockError,
    FlashGeometry,
    NandFlash,
    UNIT_TIMING,
)


class TestChipBadBlocks:
    def test_factory_bad_blocks(self):
        chip = NandFlash(FlashGeometry(num_blocks=8, pages_per_block=4),
                         initial_bad_blocks=[2, 5])
        assert chip.bad_blocks() == [2, 5]
        with pytest.raises(BadBlockError):
            chip.program_page(chip.geometry.ppn_of(2, 0), "x")
        with pytest.raises(BadBlockError):
            chip.erase_block(5)

    def test_endurance_limit_fails_the_exhausting_erase(self):
        chip = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=2),
                         timing=UNIT_TIMING, endurance=3)
        for _ in range(3):
            chip.erase_block(0)
        with pytest.raises(BadBlockError) as info:
            chip.erase_block(0)
        assert info.value.pbn == 0
        assert chip.is_bad[0]
        assert chip.bad_blocks() == [0]

    def test_bad_block_contents_are_gone(self):
        chip = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=2),
                         timing=UNIT_TIMING, endurance=1)
        chip.program_page(0, "x")
        chip.invalidate_page(0)
        chip.erase_block(0)
        with pytest.raises(BadBlockError):
            chip.erase_block(0)
        assert chip.write_ptr[0] == 0

    def test_other_blocks_unaffected(self):
        chip = NandFlash(FlashGeometry(num_blocks=4, pages_per_block=2),
                         timing=UNIT_TIMING, endurance=1)
        chip.erase_block(0)
        with pytest.raises(BadBlockError):
            chip.erase_block(0)
        chip.erase_block(1)  # still fine

    def test_invalid_endurance_rejected(self):
        with pytest.raises(ValueError):
            NandFlash(FlashGeometry(num_blocks=4, pages_per_block=2),
                      endurance=0)

    def test_invalid_bad_block_index_rejected(self):
        from repro.flash import OutOfRangeError
        with pytest.raises(OutOfRangeError):
            NandFlash(FlashGeometry(num_blocks=4, pages_per_block=2),
                      initial_bad_blocks=[9])


class TestLazyFTLBadBlocks:
    def make(self, endurance=None, bad=(), blocks=48):
        flash = NandFlash(
            FlashGeometry(num_blocks=blocks, pages_per_block=8,
                          page_size=64),
            timing=UNIT_TIMING,
            endurance=endurance,
            initial_bad_blocks=bad,
        )
        return LazyFTL(flash, logical_pages=96,
                       config=LazyConfig(uba_blocks=4, cba_blocks=2,
                                         gc_free_threshold=3))

    def test_factory_bad_blocks_excluded_from_pool(self):
        ftl = self.make(bad=[10, 20])
        assert 10 not in ftl._pool
        assert 20 not in ftl._pool

    def test_bad_anchor_rejected(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=48, pages_per_block=8, page_size=64),
            initial_bad_blocks=[0],
        )
        with pytest.raises(ValueError):
            LazyFTL(flash, logical_pages=96,
                    config=LazyConfig(uba_blocks=4, cba_blocks=2,
                                      gc_free_threshold=3))
