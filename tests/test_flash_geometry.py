"""Unit tests for flash geometry and address arithmetic."""

import pytest

from repro.flash import FlashGeometry, OutOfRangeError, geometry_for_capacity


class TestFlashGeometry:
    def test_defaults_match_paper_era_device(self):
        g = FlashGeometry()
        assert g.pages_per_block == 64
        assert g.page_size == 2048
        assert g.block_bytes == 128 * 1024

    def test_total_pages(self):
        g = FlashGeometry(num_blocks=10, pages_per_block=8)
        assert g.total_pages == 80

    def test_capacity_bytes(self):
        g = FlashGeometry(num_blocks=2, pages_per_block=4, page_size=512)
        assert g.capacity_bytes == 2 * 4 * 512

    def test_map_entries_per_page(self):
        g = FlashGeometry(page_size=2048)
        assert g.map_entries_per_page == 512

    @pytest.mark.parametrize("field,value", [
        ("num_blocks", 0),
        ("num_blocks", -1),
        ("pages_per_block", 0),
        ("page_size", 0),
    ])
    def test_invalid_parameters_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            FlashGeometry(**kwargs)

    def test_geometry_is_frozen(self):
        g = FlashGeometry()
        with pytest.raises(AttributeError):
            g.num_blocks = 5


class TestAddressArithmetic:
    def setup_method(self):
        self.g = FlashGeometry(num_blocks=4, pages_per_block=8)

    def test_ppn_of_roundtrip(self):
        for block in range(4):
            for offset in range(8):
                ppn = self.g.ppn_of(block, offset)
                assert self.g.block_of(ppn) == block
                assert self.g.offset_of(ppn) == offset
                assert self.g.split_ppn(ppn) == (block, offset)

    def test_ppn_is_flat_and_dense(self):
        ppns = [self.g.ppn_of(b, o) for b in range(4) for o in range(8)]
        assert ppns == list(range(32))

    def test_out_of_range_ppn(self):
        with pytest.raises(OutOfRangeError):
            self.g.block_of(32)
        with pytest.raises(OutOfRangeError):
            self.g.block_of(-1)

    def test_out_of_range_block(self):
        with pytest.raises(OutOfRangeError):
            self.g.ppn_of(4, 0)
        with pytest.raises(OutOfRangeError):
            self.g.check_block(-1)

    def test_out_of_range_offset(self):
        with pytest.raises(OutOfRangeError):
            self.g.ppn_of(0, 8)

    def test_error_carries_context(self):
        try:
            self.g.check_ppn(99)
        except OutOfRangeError as e:
            assert e.kind == "ppn"
            assert e.value == 99
            assert e.limit == 32
        else:  # pragma: no cover
            pytest.fail("expected OutOfRangeError")


class TestGeometryForCapacity:
    def test_exact_capacity(self):
        g = geometry_for_capacity(128)  # 128 MiB / 128 KiB blocks = 1024
        assert g.num_blocks == 1024
        assert g.capacity_bytes == 128 * 1024 * 1024

    def test_rounds_up(self):
        g = geometry_for_capacity(1, pages_per_block=64, page_size=2048)
        assert g.capacity_bytes >= 1024 * 1024

    def test_minimum_one_block(self):
        g = geometry_for_capacity(0)
        assert g.num_blocks == 1
