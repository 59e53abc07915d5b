"""Unit tests for the block pool and GC victim policies."""

import pytest

from repro.flash import FlashGeometry, NandFlash
from repro.ftl.gc_policy import select_cost_benefit, select_greedy
from repro.ftl.pool import BlockPool, OutOfBlocksError


class TestBlockPool:
    def test_fifo_order(self):
        p = BlockPool([3, 1, 2])
        assert p.allocate() == 3
        assert p.allocate() == 1
        p.release(3)
        assert p.allocate() == 2
        assert p.allocate() == 3

    def test_len_and_contains(self):
        p = BlockPool([0, 1])
        assert len(p) == 2
        assert 0 in p
        p.allocate()
        assert 0 not in p
        assert len(p) == 1

    def test_exhaustion_raises(self):
        p = BlockPool([0])
        p.allocate()
        with pytest.raises(OutOfBlocksError):
            p.allocate()

    def test_double_release_rejected(self):
        p = BlockPool([0])
        with pytest.raises(ValueError):
            p.release(0)

    def test_duplicate_init_rejected(self):
        with pytest.raises(ValueError):
            BlockPool([1, 1])

    def test_peek(self):
        p = BlockPool([5, 6])
        assert p.peek() == 5
        p.allocate()
        p.allocate()
        assert p.peek() is None

    def test_snapshot(self):
        p = BlockPool([4, 5, 6])
        p.allocate()
        assert p.snapshot() == [5, 6]

    def test_for_device_skips_bad_and_reserved_blocks(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=8, pages_per_block=2, page_size=64),
            initial_bad_blocks=[2, 5],
        )
        assert BlockPool.for_device(flash).snapshot() == [0, 1, 3, 4, 6, 7]
        assert BlockPool.for_device(flash, reserved=(0, 1)).snapshot() == \
            [3, 4, 6, 7]


PAGES = 8


def valid_counts(*counts):
    """A device valid-count array: index = pbn, value = VALID pages."""
    return list(counts)


class TestGreedyPolicy:
    def test_picks_fewest_valid(self):
        assert select_greedy([0, 1, 2], valid_counts(5, 2, 7)) == 1

    def test_tie_breaks_by_index(self):
        assert select_greedy([2, 1], valid_counts(9, 3, 3)) == 1

    def test_empty_candidates(self):
        assert select_greedy([], valid_counts()) is None

    def test_reads_the_device_array(self):
        flash = NandFlash(FlashGeometry(num_blocks=3, pages_per_block=PAGES,
                                        page_size=512))
        for pbn, valid in enumerate((5, 2, 7)):
            for off in range(PAGES):
                flash.program_page(pbn * PAGES + off, off)
            for off in range(valid, PAGES):
                flash.invalidate_page(pbn * PAGES + off)
        assert select_greedy(range(3), flash.valid_count) == 1


class TestCostBenefitPolicy:
    """``(ppb - v) * age / (ppb + v)`` at ``PAGES`` = 8 pages per block."""

    @staticmethod
    def pick(candidates, counts, seals, now):
        return select_cost_benefit(
            candidates, counts, seals.__getitem__, now, PAGES)

    def test_equal_ages_pick_the_fewest_valid(self):
        assert self.pick([0, 1, 2], [5, 2, 7], [10, 10, 10], 20) == 1

    def test_age_outweighs_valid_pages(self):
        # 6 * 90 / 10 = 54 against 7 * 10 / 9 = 7.8.
        assert self.pick([0, 1], [2, 1], [10, 90], 100) == 0

    def test_ties_break_toward_fewer_valid_then_lower_pbn(self):
        # 8 * 3 / 8 = 3 = 6 * 5 / 10: the emptier block.
        assert self.pick([0, 1], [2, 0], [95, 97], 100) == 1
        assert self.pick([1, 0], [2, 0], [95, 97], 100) == 1
        assert self.pick([2, 1], [0, 3, 3], [0, 50, 50], 100) == 1

    def test_fully_valid_is_never_chosen_over_a_reclaimable_block(self):
        assert self.pick([0, 1], [PAGES, PAGES - 1], [0, 99], 100) == 1
        assert self.pick([0], [PAGES], [0], 100) == 0   # a lone one is

    def test_empty_candidates(self):
        assert self.pick([], [], [], 0) is None
