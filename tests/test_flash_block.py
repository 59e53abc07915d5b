"""NAND constraints per erase block, driven through the device's raw ops
and observed in its per-block arrays (``write_ptr`` / ``valid_count`` /
``erase_count`` by pbn, ``page_states`` by ppn)."""

import pytest

from repro.flash import (
    FlashGeometry,
    NandFlash,
    OOBData,
    PageKind,
    PageState,
    RedundantInvalidateWarning,
)
from repro.flash.errors import EraseError, ProgramError, ReadError


def make_block(pages=8, enforce_sequential=True):
    """A one-block device (ppn == offset, pbn == 0)."""
    return NandFlash(
        FlashGeometry(num_blocks=1, pages_per_block=pages, page_size=512),
        enforce_sequential=enforce_sequential,
    )


def is_erased(flash):
    return flash.write_ptr[0] == 0 and not any(flash.page_states)


class TestProgramming:
    def test_sequential_program_advances_write_ptr(self):
        flash = make_block()
        for i in range(3):
            flash.program_page(i, data=f"d{i}", oob=None)
        assert flash.write_ptr[0] == 3
        assert flash.valid_count[0] == 3

    def test_erase_before_write_enforced(self):
        flash = make_block()
        flash.program_page(0, "x")
        with pytest.raises(ProgramError):
            flash.program_page(0, "y")

    def test_sequential_programming_enforced(self):
        flash = make_block()
        with pytest.raises(ProgramError):
            flash.program_page(3, "x")

    def test_out_of_order_allowed_when_not_enforced(self):
        flash = make_block(enforce_sequential=False)
        flash.program_page(3, "x")
        assert flash.write_ptr[0] == 4
        assert flash.page_states[3] == PageState.VALID

    def test_is_full(self):
        flash = make_block(pages=2)
        flash.program_page(0, "a")
        assert flash.write_ptr[0] < 2
        flash.program_page(1, "b")
        assert flash.write_ptr[0] == 2
        with pytest.raises(ProgramError):
            flash.program_page(1, "c")

    def test_program_stores_data_and_oob(self):
        flash = make_block()
        oob = OOBData(lpn=42, seq=7)
        flash.program_page(0, "payload", oob)
        data, _ = flash.read_page(0)
        assert data == "payload"
        assert flash.oob_lpn[0] == 42 and flash.oob_seq[0] == 7
        assert flash.oob_kind[0] == PageKind.DATA and not flash.oob_cold[0]
        assert flash.oob(0) == oob and type(flash.oob(0)) is OOBData


class TestInvalidateAndCounters:
    def test_invalidate_decrements_valid_count(self):
        flash = make_block()
        flash.program_page(0, "a")
        flash.program_page(1, "b")
        flash.invalidate_page(0)
        assert flash.valid_count[0] == 1
        assert flash.write_ptr[0] == 2  # one page of the two is stale
        assert flash.page_state(0) is PageState.INVALID

    def test_invalidate_is_idempotent(self):
        flash = make_block()
        flash.program_page(0, "a")
        flash.invalidate_page(0)
        with pytest.warns(RedundantInvalidateWarning):
            flash.invalidate_page(0)
        assert flash.valid_count[0] == 0
        assert flash.stats.redundant_invalidates == 1

    def test_invalidate_free_page_rejected(self):
        flash = make_block()
        with pytest.raises(ProgramError):
            flash.invalidate_page(5)

    def test_valid_offsets(self):
        flash = make_block()
        for i in range(4):
            flash.program_page(i, i)
        flash.invalidate_page(1)
        flash.invalidate_page(3)
        assert flash.valid_ppns(0) == [0, 2]
        assert flash.write_ptr[0] == 4


class TestErase:
    def test_erase_resets_block_and_counts_wear(self):
        flash = make_block()
        flash.program_page(0, "a", OOBData(lpn=1, seq=0))
        flash.invalidate_page(0)
        flash.erase_block(0)
        assert is_erased(flash)
        assert flash.erase_count[0] == 1
        assert flash.page_data[0] is None and flash.oob(0) is None
        assert (flash.oob_lpn[0], flash.oob_seq[0], flash.oob_kind[0],
                flash.oob_cold[0]) == (0, 0, 0, 0)

    def test_erase_with_valid_pages_refused(self):
        flash = make_block()
        flash.program_page(0, "a")
        with pytest.raises(EraseError):
            flash.erase_block(0)
        assert flash.page_states[0] == PageState.VALID
        assert flash.erase_count[0] == 0

    def test_force_erase_ignores_valid_pages(self):
        flash = make_block()
        flash.program_page(0, "a")
        flash.force_erase(0)  # ftlint: disable=FTL003 - testing the device layer
        assert is_erased(flash)
        assert flash.valid_count[0] == 0
        assert flash.erase_count[0] == 1

    def test_block_reusable_after_erase(self):
        flash = make_block(pages=2)
        for cycle in range(3):
            flash.program_page(0, cycle)
            flash.program_page(1, cycle)
            flash.invalidate_page(0)
            flash.invalidate_page(1)
            flash.erase_block(0)
        assert flash.erase_count[0] == 3
        assert is_erased(flash)


class TestReads:
    def test_read_unprogrammed_page_rejected(self):
        flash = make_block()
        with pytest.raises(ReadError):
            flash.read_page(0)

    def test_read_invalid_page_allowed(self):
        # Stale copies remain physically readable until erased - recovery
        # scans rely on this.
        flash = make_block()
        flash.program_page(0, "old")
        flash.invalidate_page(0)
        data, _ = flash.read_page(0)
        assert data == "old"
