"""Tests for repro.perf.maptable: MapTable.

MapTable must behave exactly like the ``List[Optional[int]]`` /
``Dict[int, int]`` hybrids it replaced (the -1 sentinel never leaks).
"""

import pytest

from repro.perf.maptable import UNMAPPED, MapTable


class TestMapTable:
    def test_starts_unmapped(self):
        table = MapTable(8)
        assert len(table) == 8
        assert table.mapped_count() == 0
        assert table[3] is None
        assert table.get(3) is None
        assert 3 not in table

    def test_set_get_roundtrip(self):
        table = MapTable(8)
        table[2] = 17
        assert table[2] == 17
        assert table.get(2) == 17
        assert 2 in table
        assert table.mapped_count() == 1
        assert table.raw[2] == 17

    def test_zero_is_a_valid_mapping(self):
        table = MapTable(4)
        table[1] = 0
        assert table[1] == 0
        assert 1 in table

    def test_assigning_none_unmaps(self):
        table = MapTable(4)
        table[1] = 9
        table[1] = None
        assert table[1] is None
        assert table.raw[1] == UNMAPPED

    def test_negative_value_rejected(self):
        table = MapTable(4)
        with pytest.raises(ValueError):
            table[0] = -2

    def test_get_out_of_range_returns_default(self):
        table = MapTable(4)
        assert table.get(99) is None
        assert table.get(-1) is None
        assert table.get(99, default=7) == 7

    def test_pop(self):
        table = MapTable(4)
        table[2] = 5
        assert table.pop(2) == 5
        assert table.pop(2) is None
        assert table.pop(99, default=3) == 3
        assert table.mapped_count() == 0

    def test_items_ascending_and_sparse(self):
        table = MapTable(6)
        table[4] = 40
        table[1] = 10
        assert list(table.items()) == [(1, 10), (4, 40)]

    def test_iteration_matches_list_semantics(self):
        table = MapTable(3)
        table[1] = 7
        assert list(table) == [None, 7, None]

    def test_snapshot_restore_roundtrip(self):
        table = MapTable(5)
        table[0] = 3
        table[4] = 0
        snap = table.snapshot()
        assert snap == [3, None, None, None, 0]
        other = MapTable(5)
        other.restore(snap)
        assert list(other.items()) == [(0, 3), (4, 0)]

    def test_restore_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            MapTable(3).restore([None] * 4)

    def test_clear_keeps_capacity_and_raw_identity(self):
        table = MapTable(4)
        raw = table.raw
        table[2] = 9
        table.clear()
        assert table.raw is raw
        assert len(table) == 4
        assert table.mapped_count() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MapTable(-1)

