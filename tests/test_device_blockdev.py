"""Tests for the sector-granular block-device layer."""

import random

import pytest

from repro.core import LazyConfig, LazyFTL
from repro.device import FlashBlockDevice
from repro.flash import FlashGeometry, NandFlash, UNIT_TIMING
from repro.ftl import PageFTL


def make_device(page_size=2048, sector_size=512, scheme="ideal"):
    flash = NandFlash(
        FlashGeometry(num_blocks=48, pages_per_block=16,
                      page_size=page_size),
        timing=UNIT_TIMING,
    )
    logical = int(flash.geometry.total_pages * 0.6)
    if scheme == "lazy":
        ftl = LazyFTL(flash, logical,
                      LazyConfig(uba_blocks=4, cba_blocks=2,
                                 gc_free_threshold=3))
    else:
        ftl = PageFTL(flash, logical)
    return FlashBlockDevice(ftl, sector_size=sector_size)


class TestGeometry:
    def test_capacity(self):
        dev = make_device()
        assert dev.sectors_per_page == 4
        assert dev.capacity_sectors == dev.ftl.logical_pages * 4

    def test_sector_size_must_divide_page(self):
        flash = NandFlash(FlashGeometry(num_blocks=48, pages_per_block=16))
        ftl = PageFTL(flash, 256)
        with pytest.raises(ValueError):
            FlashBlockDevice(ftl, sector_size=600)

    def test_range_checks(self):
        dev = make_device()
        with pytest.raises(ValueError):
            dev.read(-1, 1)
        with pytest.raises(ValueError):
            dev.read(0, 0)
        with pytest.raises(ValueError):
            dev.write(dev.capacity_sectors, ["x"])


class TestSectorIO:
    def test_aligned_page_write_and_read(self):
        dev = make_device()
        assert isinstance(dev.write(0, ["a", "b", "c", "d"]), float)
        result = dev.read(0, 4)
        assert isinstance(result, tuple) and len(result) == 2
        assert result[0] == result.data == ["a", "b", "c", "d"]
        assert result[1] == result.latency_us == 1.0  # one page read

    def test_single_sector_roundtrip(self):
        dev = make_device()
        dev.write(5, ["payload"])
        assert dev.read(5, 1).data == ["payload"]

    def test_unwritten_sectors_read_none(self):
        dev = make_device()
        assert dev.read(100, 2).data == [None, None]

    def test_cross_page_read_write(self):
        dev = make_device()
        data = [f"s{i}" for i in range(10)]  # spans 3 pages from sector 2
        dev.write(2, data)
        assert dev.read(2, 10).data == data

    def test_sub_page_write_preserves_neighbours(self):
        dev = make_device()
        dev.write(0, ["a", "b", "c", "d"])
        dev.write(1, ["B"])  # middle sector of the same page
        assert dev.read(0, 4).data == ["a", "B", "c", "d"]

    def test_rmw_accounting(self):
        dev = make_device()
        dev.write(0, ["a", "b", "c", "d"])  # aligned: no RMW
        assert dev.rmw_count == 0
        dev.write(1, ["B"])
        assert dev.rmw_count == 1

    def test_rmw_costs_a_page_read(self):
        dev = make_device()
        dev.write(0, ["a", "b", "c", "d"])
        aligned = dev.write(4, ["e", "f", "g", "h"])
        partial = dev.write(1, ["B"])
        assert partial == aligned + 1.0  # one extra page read (UNIT timing)

    def test_latency_aggregated_over_pages(self):
        dev = make_device()
        latency = dev.write(0, [f"s{i}" for i in range(8)])  # two pages
        assert latency == 2.0


class TestOnLazyFTL:
    def test_random_sector_workload_integrity(self):
        dev = make_device(scheme="lazy")
        rng = random.Random(0)
        shadow = {}
        for i in range(3000):
            lba = rng.randrange(dev.capacity_sectors)
            n = rng.choice((1, 1, 2, 4))
            n = min(n, dev.capacity_sectors - lba)
            data = [(lba + j, i) for j in range(n)]
            dev.write(lba, data)
            for j in range(n):
                shadow[lba + j] = (lba + j, i)
        for lba, value in shadow.items():
            assert dev.read(lba, 1).data == [value]

    def test_flush_propagates_to_lazyftl(self):
        dev = make_device(scheme="lazy")
        dev.write(0, ["x"])
        assert len(dev.ftl.umt) > 0
        dev.flush()
        assert len(dev.ftl.umt) == 0

    def test_flush_noop_on_schemes_without_flush(self):
        dev = make_device(scheme="ideal")
        assert dev.flush() == 0.0
