"""NAND constraints per erase block, driven through the device's raw ops
and observed through the read-only :class:`Block` view."""

import pytest

from repro.flash import (
    FlashGeometry,
    NandFlash,
    OOBData,
    PageState,
    RedundantInvalidateWarning,
)
from repro.flash.errors import EraseError, ProgramError, ReadError


def make_block(pages=8, enforce_sequential=True):
    """A one-block device and the view of its block 0 (ppn == offset)."""
    flash = NandFlash(
        FlashGeometry(num_blocks=1, pages_per_block=pages, page_size=512),
        enforce_sequential=enforce_sequential,
    )
    return flash, flash.block(0)


class TestProgramming:
    def test_sequential_program_advances_write_ptr(self):
        flash, b = make_block()
        for i in range(3):
            flash.program_page(i, data=f"d{i}", oob=None)
        assert b.write_ptr == 3
        assert b.valid_count == 3
        assert b.free_count == 5

    def test_erase_before_write_enforced(self):
        flash, _ = make_block()
        flash.program_page(0, "x")
        with pytest.raises(ProgramError):
            flash.program_page(0, "y")

    def test_sequential_programming_enforced(self):
        flash, _ = make_block()
        with pytest.raises(ProgramError):
            flash.program_page(3, "x")

    def test_out_of_order_allowed_when_not_enforced(self):
        flash, b = make_block(enforce_sequential=False)
        flash.program_page(3, "x")
        assert b.write_ptr == 4
        assert b.is_valid(3)

    def test_is_full(self):
        flash, b = make_block(pages=2)
        assert not b.is_full
        flash.program_page(0, "a")
        flash.program_page(1, "b")
        assert b.is_full

    def test_program_stores_data_and_oob(self):
        flash, b = make_block()
        oob = OOBData(lpn=42, seq=7)
        flash.program_page(0, "payload", oob)
        data, got_oob, _ = flash.read_page(0)
        assert data == "payload"
        assert got_oob.lpn == 42
        assert got_oob.seq == 7
        assert b.oob(0) is got_oob


class TestInvalidateAndCounters:
    def test_invalidate_decrements_valid_count(self):
        flash, b = make_block()
        flash.program_page(0, "a")
        flash.program_page(1, "b")
        flash.invalidate_page(0)
        assert b.valid_count == 1
        assert b.invalid_count == 1
        assert flash.page_state(0) is PageState.INVALID

    def test_invalidate_is_idempotent(self):
        flash, b = make_block()
        flash.program_page(0, "a")
        flash.invalidate_page(0)
        with pytest.warns(RedundantInvalidateWarning):
            flash.invalidate_page(0)
        assert b.valid_count == 0
        assert flash.stats.redundant_invalidates == 1

    def test_invalidate_free_page_rejected(self):
        flash, _ = make_block()
        with pytest.raises(ProgramError):
            flash.invalidate_page(5)

    def test_valid_offsets(self):
        flash, b = make_block()
        for i in range(4):
            flash.program_page(i, i)
        flash.invalidate_page(1)
        flash.invalidate_page(3)
        assert list(b.valid_offsets()) == [0, 2]
        assert list(b.programmed_offsets()) == [0, 1, 2, 3]


class TestErase:
    def test_erase_resets_block_and_counts_wear(self):
        flash, b = make_block()
        flash.program_page(0, "a", OOBData(lpn=1, seq=0))
        flash.invalidate_page(0)
        flash.erase_block(0)
        assert b.is_empty
        assert b.erase_count == 1
        assert all(b.is_free(o) for o in range(b.pages_per_block))
        assert flash.page_data[0] is None and flash.page_oob[0] is None

    def test_erase_with_valid_pages_refused(self):
        flash, b = make_block()
        flash.program_page(0, "a")
        with pytest.raises(EraseError):
            flash.erase_block(0)
        assert b.is_valid(0) and b.erase_count == 0

    def test_force_erase_ignores_valid_pages(self):
        flash, b = make_block()
        flash.program_page(0, "a")
        flash.force_erase(0)  # ftlint: disable=FTL003 - testing the device layer
        assert b.is_empty
        assert b.valid_count == 0
        assert b.erase_count == 1

    def test_block_reusable_after_erase(self):
        flash, b = make_block(pages=2)
        for cycle in range(3):
            flash.program_page(0, cycle)
            flash.program_page(1, cycle)
            flash.invalidate_page(0)
            flash.invalidate_page(1)
            flash.erase_block(0)
        assert b.erase_count == 3
        assert b.is_empty


class TestReads:
    def test_read_unprogrammed_page_rejected(self):
        flash, _ = make_block()
        with pytest.raises(ReadError):
            flash.read_page(0)

    def test_read_invalid_page_allowed(self):
        # Stale copies remain physically readable until erased - recovery
        # scans rely on this.
        flash, _ = make_block()
        flash.program_page(0, "old")
        flash.invalidate_page(0)
        data, _, _ = flash.read_page(0)
        assert data == "old"


class TestViewIsReadOnly:
    def test_view_has_no_mutators_or_page_objects(self):
        _, b = make_block()
        for name in ("program", "invalidate", "erase", "force_erase",
                     "mark_bad", "pages"):
            assert not hasattr(b, name)
        with pytest.raises(AttributeError):
            b.write_ptr = 3  # ftlint: disable=FTL003 - must be refused

    def test_offset_outside_block_rejected(self):
        _, b = make_block(pages=4)
        with pytest.raises(IndexError):
            b.is_valid(4)
        with pytest.raises(IndexError):
            b.oob(-1)
