"""Unit tests for LazyFTL's building blocks: GTD, UMT, areas, config."""

import pytest

from repro.core import (
    BlockArea,
    GlobalTranslationDirectory,
    LazyConfig,
    UpdateMappingTable,
    group_by_tvpn,
)


class TestGTD:
    def test_starts_unmapped(self):
        gtd = GlobalTranslationDirectory(4)
        assert len(gtd) == 4
        assert all(gtd.get(t) is None for t in range(4))
        assert gtd.materialized() == 0

    def test_set_get(self):
        gtd = GlobalTranslationDirectory(4)
        gtd.set(2, 99)
        assert gtd.get(2) == 99
        assert gtd.materialized() == 1

    def test_ram_bytes(self):
        assert GlobalTranslationDirectory(100).ram_bytes() == 400

    def test_snapshot_restore_roundtrip(self):
        gtd = GlobalTranslationDirectory(3)
        gtd.set(0, 7)
        snap = gtd.snapshot()
        other = GlobalTranslationDirectory(3)
        other.restore(snap)
        assert other.get(0) == 7
        assert other.get(1) is None

    def test_restore_size_mismatch(self):
        with pytest.raises(ValueError):
            GlobalTranslationDirectory(3).restore([None] * 4)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            GlobalTranslationDirectory(0)


class TestUMT:
    def test_set_get_discard(self):
        umt = UpdateMappingTable()
        umt.set(5, 100)
        assert 5 in umt
        assert umt.get(5) == 100
        umt.discard(5)
        assert 5 not in umt
        assert umt.get(5) is None
        umt.discard(5)
        assert len(umt) == 0

    def test_points_to(self):
        umt = UpdateMappingTable()
        umt.set(1, 10)
        assert umt.points_to(1, 10)
        assert not umt.points_to(1, 11)
        assert not umt.points_to(2, 10)

    def test_replacement(self):
        umt = UpdateMappingTable()
        umt.set(1, 10)
        umt.set(1, 20)
        assert umt.get(1) == 20
        assert len(umt) == 1

    def test_ram_bytes_is_eight_per_entry(self):
        umt = UpdateMappingTable()
        for i in range(5):
            umt.set(i, i)
        assert umt.ram_bytes() == 40

    def test_snapshot_restore(self):
        umt = UpdateMappingTable()
        umt.set(1, 10)
        umt.set(2, 20)
        other = UpdateMappingTable()
        other.restore(dict(umt.items()))
        assert other.get(2) == 20
        assert len(other) == 2

    def test_discard_pages_drops_exactly_those_pages_entries(self):
        umt = UpdateMappingTable(entries_per_page=16)
        # lpns 0, 15 -> tvpn 0; lpns 16, 31 -> tvpn 1; lpn 40 -> tvpn 2.
        for lpn in (0, 15, 16, 31, 40):
            umt.set(lpn, 100 + lpn)
        umt.discard_pages([0, 2])
        assert 0 not in umt and 15 not in umt and 40 not in umt
        assert umt.get(16) == 116
        assert umt.get(31) == 131
        assert len(umt) == 2
        assert sorted(lpn for lpn, _ in umt.items()) == [16, 31]
        assert umt.pages_of(range(3)) == {1: {16, 31}}

    def test_discard_pages_matches_per_lpn_pops(self):
        bulk = UpdateMappingTable(entries_per_page=16)
        one_by_one = UpdateMappingTable(entries_per_page=16)
        for lpn in (1, 3, 14, 20):
            bulk.set(lpn, 50 + lpn)
            one_by_one.set(lpn, 50 + lpn)
        bulk.discard_pages([0])
        for lpn in (1, 3, 14):
            one_by_one.discard(lpn)
        assert dict(bulk.items()) == dict(one_by_one.items())
        assert len(bulk) == len(one_by_one) == 1

    def test_discard_missing_page_is_a_noop(self):
        umt = UpdateMappingTable()
        umt.set(1, 10)
        umt.discard_pages([99])
        assert umt.get(1) == 10
        assert len(umt) == 1


class TestGroupByTvpn:
    def test_groups_by_mapping_page(self):
        groups = group_by_tvpn([0, 15, 16, 35], entries_per_page=16)
        assert set(groups) == {0, 1, 2}
        assert groups[0] == [0, 15]
        assert groups[1] == [16]
        assert groups[2] == [35]

    def test_empty(self):
        assert group_by_tvpn([], 16) == {}


class TestBlockArea:
    def test_fifo_discipline(self):
        area = BlockArea("UBA", capacity=3)
        area.push(10)
        area.push(11)
        assert area.frontier == 11
        assert area.oldest == 10
        assert area.pop_oldest() == 10
        assert area.oldest == 11

    def test_capacity(self):
        area = BlockArea("UBA", capacity=2)
        area.push(1)
        assert not area.is_at_capacity
        area.push(2)
        assert area.is_at_capacity

    def test_duplicate_push_rejected(self):
        area = BlockArea("UBA", capacity=2)
        area.push(1)
        with pytest.raises(ValueError):
            area.push(1)

    def test_pop_empty_rejected(self):
        with pytest.raises(IndexError):
            BlockArea("UBA", capacity=2).pop_oldest()

    def test_snapshot_restore(self):
        area = BlockArea("CBA", capacity=4)
        for b in (3, 1, 2):
            area.push(b)
        other = BlockArea("CBA", capacity=4)
        other.restore(area.snapshot())
        assert other.oldest == 3
        assert other.frontier == 2

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            BlockArea("UBA", capacity=1)


class TestLazyConfig:
    def test_defaults_valid(self):
        cfg = LazyConfig()
        assert cfg.uba_blocks >= 2
        assert cfg.cba_blocks >= 2

    @pytest.mark.parametrize("kwargs", [
        {"uba_blocks": 1},
        {"cba_blocks": 1},
        {"gc_free_threshold": 2},
        {"checkpoint_interval": -1},
        {"wear_threshold": 0},
        {"convert_policy": "lru"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LazyConfig(**kwargs)

    def test_frozen(self):
        cfg = LazyConfig()
        with pytest.raises(AttributeError):
            cfg.uba_blocks = 16
