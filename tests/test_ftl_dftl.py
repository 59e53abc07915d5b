"""Tests for the DFTL demand-cached page-mapping FTL."""

import random
from collections import OrderedDict

import pytest

from repro.flash import FlashGeometry, NandFlash, UNIT_TIMING
from repro.ftl.dftl import DftlFTL

from .ftl_conformance import FTLConformance


class TestDftlConformance(FTLConformance):
    def make_ftl(self, flash):
        return DftlFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       cmt_entries=64)


class TestDftlConformanceTinyCache(FTLConformance):
    """Same contract must hold with a pathologically small CMT."""

    def make_ftl(self, flash):
        return DftlFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       cmt_entries=4)


def make_dftl(blocks=32, pages=8, page_size=64, logical=64, cmt=8, **kw):
    # page_size=64 -> 16 mapping entries per translation page, so
    # translation behaviour is exercised with small address spaces.
    flash = NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages,
                      page_size=page_size),
        timing=UNIT_TIMING,
    )
    return DftlFTL(flash, logical_pages=logical, cmt_entries=cmt, **kw)


class TestDftlTranslation:
    def test_cmt_hit_costs_nothing_extra(self):
        ftl = make_dftl()
        ftl.write(0, "x")
        first = ftl.read(0)
        again = ftl.read(0)
        assert again.latency_us == 1.0  # data read only, mapping cached

    def test_miss_after_eviction_costs_translation_read(self):
        ftl = make_dftl(cmt=2)
        ftl.write(0, "a")   # dirty entry for lpn 0
        ftl.write(20, "b")  # different translation page
        ftl.write(40, "c")  # evicts lpn 0 (dirty -> flush) and 20
        assert ftl.stats.map_writes >= 1
        r = ftl.read(0)     # miss: victim flush + translation read + data read
        assert r.data == "a"
        assert r.latency_us >= 2.0
        assert ftl.stats.map_reads >= 1

    def test_batch_eviction_flushes_same_tpage_entries_together(self):
        batched = make_dftl(cmt=4)
        # lpns 0..3 share translation page 0 (16 entries per tpage)
        for lpn in range(4):
            batched.write(lpn, lpn)
        batched.write(20, "overflow")  # force eviction of lpn 0 (dirty)
        # one flush wrote back all four dirty entries -> single map write
        assert batched.stats.map_writes == 1

    def test_clean_eviction_is_free(self):
        ftl = make_dftl(cmt=2)
        ftl.write(0, "a")
        ftl.write(20, "b")
        # Reads of other translation pages evict the dirty entries (flushes).
        ftl.read(40)
        ftl.read(60)
        before = ftl.stats.map_writes
        # The CMT now holds only clean entries; further reads evict cleanly.
        ftl.read(0)
        ftl.read(20)
        assert ftl.stats.map_writes == before

    def test_gtd_none_until_first_flush(self):
        ftl = make_dftl()
        assert all(t is None for t in ftl._maps.gtd)
        ftl.write(0, "x")
        # mapping still only in CMT
        assert all(t is None for t in ftl._maps.gtd)

    def test_ram_bytes_scales_with_cmt(self):
        small = make_dftl(cmt=8)
        large = make_dftl(cmt=64)
        assert large.ram_bytes() > small.ram_bytes()


class TestDftlDirtyIndex:
    """Dirty entries are indexed by translation page; a flush reads the
    index, never the CMT."""

    def dirty_by_flag(self, ftl):
        pages = {}
        for lpn, entry in ftl._cmt.items():
            if entry.dirty:
                pages.setdefault(ftl._maps.tvpn_of(lpn), set()).add(lpn)
        return pages

    def test_index_follows_write_flush_and_gc(self):
        ftl = make_dftl(blocks=24, logical=64, cmt=6)
        rng = random.Random(11)
        for i in range(1500):
            lpn = rng.randrange(64)
            if i % 5:
                ftl.write(lpn, i)
            else:
                ftl.read(lpn)
            assert ftl._dirty.pages == self.dirty_by_flag(ftl)
        assert ftl.stats.gc_runs > 0 and ftl.stats.map_writes > 0

    def test_flush_never_walks_the_cmt(self):
        """No scan left: however many entries are cached, writing back
        one translation page's dirty ones iterates nothing but them."""
        ftl = make_dftl(blocks=40, pages=8, logical=192, cmt=48)

        class CountingCmt(OrderedDict):
            in_flush = False
            walks = 0

            def __iter__(self):
                CountingCmt.walks += self.in_flush
                return OrderedDict.__iter__(self)

            def items(self):
                CountingCmt.walks += self.in_flush
                return OrderedDict.items(self)

        ftl._cmt = CountingCmt()
        flush = ftl._flush_tvpn
        flushes = []

        def watched_flush(victim_lpn):
            CountingCmt.in_flush = True
            try:
                return flush(victim_lpn)
            finally:
                CountingCmt.in_flush = False
                flushes.append(victim_lpn)

        ftl._flush_tvpn = watched_flush
        rng = random.Random(13)
        for i in range(4000):
            ftl.write(rng.randrange(192), i)
        assert len(flushes) > 500
        assert CountingCmt.walks == 0


class TestDftlGC:
    def test_gc_updates_translation_pages(self):
        ftl = make_dftl(blocks=24, logical=64, cmt=4)
        rng = random.Random(0)
        for i in range(1500):
            ftl.write(rng.randrange(64), i)
        assert ftl.stats.gc_runs > 0
        # GC must have committed moved mappings to flash.
        assert ftl.stats.map_writes > 0

    def test_integrity_with_tiny_cache_and_gc_churn(self):
        ftl = make_dftl(blocks=24, logical=64, cmt=2)
        rng = random.Random(7)
        expected = {}
        for i in range(2000):
            lpn = rng.randrange(64)
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
        for lpn, v in expected.items():
            assert ftl.read(lpn).data == v

    def test_translation_blocks_are_garbage_collected(self):
        ftl = make_dftl(blocks=24, logical=64, cmt=2)
        rng = random.Random(3)
        for i in range(4000):
            ftl.write(rng.randrange(64), i)
        # Translation pages churn constantly with a tiny CMT, so some GC
        # victims must have been translation blocks.
        assert ftl.stats.map_writes > 100


class TestDftlValidation:
    def test_bad_cmt(self):
        flash = NandFlash(FlashGeometry(num_blocks=32, pages_per_block=8))
        with pytest.raises(ValueError):
            DftlFTL(flash, logical_pages=64, cmt_entries=0)

    def test_bad_threshold(self):
        flash = NandFlash(FlashGeometry(num_blocks=32, pages_per_block=8))
        with pytest.raises(ValueError):
            DftlFTL(flash, logical_pages=64, gc_free_threshold=2)

    def test_too_small_device(self):
        flash = NandFlash(FlashGeometry(num_blocks=8, pages_per_block=8))
        with pytest.raises(ValueError):
            DftlFTL(flash, logical_pages=64)
