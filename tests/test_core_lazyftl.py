"""Tests for LazyFTL itself: the conformance contract plus the properties
the paper claims (zero merges, batched commits, lazy invalidation)."""

import random

import pytest

from repro.flash import (
    FlashGeometry, NandFlash, PageKind, PageState, UNIT_TIMING,
)
from repro.core import LazyConfig, LazyFTL

from .ftl_conformance import FTLConformance


SMALL_CONFIG = LazyConfig(uba_blocks=4, cba_blocks=2, gc_free_threshold=3)


class TestLazyFTLConformance(FTLConformance):
    def make_ftl(self, flash):
        return LazyFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       config=SMALL_CONFIG)

    def test_valid_page_conservation(self):
        """Override: LazyFTL defers invalidation, so exact conservation
        holds only after a flush commits the whole UMT."""
        ftl = self.new_ftl()
        rng = random.Random(9)
        live = set()
        for i in range(self.LOGICAL_PAGES * 4):
            lpn = rng.randrange(self.LOGICAL_PAGES)
            ftl.write(lpn, i)
            live.add(lpn)
        before_flush = self.count_valid_data_pages(ftl)
        assert before_flush >= len(live)  # stale copies may linger
        ftl.flush()
        assert self.count_valid_data_pages(ftl) == len(live)


def valid_data_copies(flash, lpn):
    """How many VALID data pages on ``flash`` carry ``lpn`` in their OOB."""
    return sum(
        1 for ppn, state in enumerate(flash.page_states)
        if state == PageState.VALID
        and flash.oob_kind[ppn] == PageKind.DATA and flash.oob_lpn[ppn] == lpn
    )


def make_lazy(blocks=40, pages=8, page_size=64, logical=96, **cfg):
    """Small device with 16-entry GMT pages so mapping behaviour is visible."""
    flash = NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages,
                      page_size=page_size),
        timing=UNIT_TIMING,
    )
    defaults = {"uba_blocks": 4, "cba_blocks": 2, "gc_free_threshold": 3}
    defaults.update(cfg)
    return LazyFTL(flash, logical_pages=logical, config=LazyConfig(**defaults))


class TestMergeFreedom:
    """The paper's headline: LazyFTL has no merge operations, ever."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_merges_under_random_writes(self, seed):
        ftl = make_lazy()
        rng = random.Random(seed)
        for i in range(3000):
            ftl.write(rng.randrange(96), i)
        assert ftl.stats.merges_total == 0

    def test_no_merges_under_sequential_writes(self):
        ftl = make_lazy()
        for sweep in range(10):
            for lpn in range(96):
                ftl.write(lpn, (sweep, lpn))
        assert ftl.stats.merges_total == 0

    def test_conversion_moves_no_data(self):
        """Converting a block costs only mapping I/O - data stays put."""
        ftl = make_lazy()
        for lpn in range(8):          # exactly one update block
            ftl.write(lpn, lpn)
        programs_before = ftl.flash.stats.page_programs
        map_writes_before = ftl.stats.map_writes
        ftl.flush()                   # converts the update block
        data_programs = (
            ftl.flash.stats.page_programs - programs_before
            - (ftl.stats.map_writes - map_writes_before)
        )
        assert data_programs == 0
        assert ftl.stats.converts >= 1


class TestBatchedCommits:
    def test_one_map_write_commits_many_entries(self):
        """8 writes covering one GMT page commit with a single map write."""
        ftl = make_lazy()
        for lpn in range(8):  # all within GMT page 0 (16 entries/page)
            ftl.write(lpn, lpn)
        ftl.flush()
        assert ftl.stats.map_writes == 1
        assert ftl.stats.batched_commits == 8

    def test_commits_grouped_per_gmt_page(self):
        ftl = make_lazy()
        # 8 writes spanning two GMT pages (page 0: lpns 0-15, page 1: 16-31)
        for lpn in (0, 1, 16, 17, 2, 18, 3, 19):
            ftl.write(lpn, lpn)
        ftl.flush()
        assert ftl.stats.map_writes == 2
        assert ftl.stats.batched_commits == 8

    def test_superseded_pages_not_committed(self):
        ftl = make_lazy()
        for _ in range(2):
            for lpn in range(4):
                ftl.write(lpn, lpn)  # second round supersedes the first
        ftl.flush()
        assert ftl.stats.batched_commits == 4  # only the live copies


class TestLazyInvalidation:
    def test_umt_resident_overwrite_invalidates_immediately(self):
        ftl = make_lazy()
        ftl.write(0, "a")
        ftl.write(0, "b")
        assert valid_data_copies(ftl.flash, 0) == 1

    def test_gmt_resident_overwrite_defers_invalidation(self):
        ftl = make_lazy()
        ftl.write(0, "old")
        ftl.flush()                    # mapping now in the GMT
        ftl.write(0, "new")            # old copy NOT invalidated yet
        # deferred: both copies look valid
        assert valid_data_copies(ftl.flash, 0) == 2
        assert ftl.read(0).data == "new"
        ftl.flush()                    # commit resolves the deferral
        assert valid_data_copies(ftl.flash, 0) == 1

    def test_reads_prefer_umt_over_gmt(self):
        ftl = make_lazy()
        ftl.write(0, "committed")
        ftl.flush()
        ftl.write(0, "fresh")
        r = ftl.read(0)
        assert r.data == "fresh"
        assert r.latency_us == 1.0  # UMT hit: data read only, no GMT read

    def test_gmt_read_charged_after_conversion(self):
        ftl = make_lazy()
        ftl.write(0, "x")
        ftl.flush()
        r = ftl.read(0)
        assert r.data == "x"
        assert r.latency_us == 2.0  # GMT page read + data read


class TestGarbageCollection:
    def test_gc_relocates_into_cold_area(self):
        ftl = make_lazy()
        rng = random.Random(0)
        for i in range(3000):
            ftl.write(rng.randrange(96), i)
        assert ftl.stats.gc_runs > 0
        assert ftl.stats.gc_page_copies >= 0
        # Cold relocations carry the cold flag.
        cold_pages = sum(
            1 for kind, cold in zip(ftl.flash.oob_kind, ftl.flash.oob_cold)
            if kind and cold)
        assert cold_pages > 0

    def test_gc_skips_superseded_pages_without_copying(self):
        """Deferred-invalid pages are dropped by GC, not relocated."""
        ftl = make_lazy()
        for lpn in range(48):
            ftl.write(lpn, ("v0", lpn))
        ftl.flush()
        # Rewrite everything: old copies are deferred-invalid in the DBA.
        for lpn in range(48):
            ftl.write(lpn, ("v1", lpn))
        copies_before = ftl.stats.gc_page_copies
        # Force GC pressure.
        rng = random.Random(1)
        for i in range(2000):
            ftl.write(rng.randrange(96), i)
        for lpn in range(48):
            assert ftl.read(lpn).data is not None

    def test_dba_is_the_collectors_victim_pool(self):
        """Converted blocks join the collector's set, GC victims leave
        it; the public view is sorted (checkpoints persist it)."""
        ftl = make_lazy()
        rng = random.Random(2)
        for i in range(3000):
            ftl.write(rng.randrange(96), i)
        dba = ftl.dba_blocks
        assert dba and dba == sorted(ftl._gc.blocks)
        staged = set(ftl.uba_blocks) | set(ftl.cba_blocks)
        assert not staged & set(dba)
        assert not any(pbn in ftl._pool for pbn in dba)
        victim = ftl._gc.select()
        ftl._gc.collect()
        assert victim not in ftl.dba_blocks

    def test_striped_cold_area_survives_at_the_headline_gc_threshold(self):
        """A CBA with a usable open block must not demand an extra way
        from an empty pool (OutOfBlocksError after ~15k of these writes
        before the frontier's one ``spare`` rule covered the CBA)."""
        from repro.sim.factory import default_lazy_config, standard_setup

        _, ftl, logical = standard_setup(
            "LazyFTL", num_blocks=512, pages_per_block=64, page_size=512,
            logical_fraction=0.8, channels=4,
            config=default_lazy_config(uba_blocks=32, cba_blocks=4,
                                       gc_free_threshold=4),
        )
        for lpn in range(logical):
            ftl.write(lpn)
        rng = random.Random(5)
        for _ in range(20000):
            ftl.write(rng.randrange(logical))
        assert ftl.stats.gc_runs > 0
        assert ftl.stats.merges_total == 0

    def test_unmapped_read_costs_nothing(self):
        ftl = make_lazy()
        r = ftl.read(95)
        assert r.data is None
        assert r.latency_us == 0.0


class TestRamAccounting:
    def test_ram_scales_with_umt_not_logical_space(self):
        small = make_lazy(logical=64)
        big = make_lazy(blocks=80, logical=256)
        # Same GMT page count would make these equal; the point is RAM does
        # not grow linearly with logical pages (unlike the ideal FTL).
        from repro.ftl import PageFTL
        flash = NandFlash(FlashGeometry(num_blocks=80, pages_per_block=8,
                                        page_size=64), timing=UNIT_TIMING)
        ideal = PageFTL(flash, logical_pages=256)
        assert big.ram_bytes() < ideal.ram_bytes()

    def test_umt_bounded_by_area_capacity(self):
        ftl = make_lazy()
        rng = random.Random(2)
        for i in range(3000):
            ftl.write(rng.randrange(96), i)
        max_entries = (ftl.config.uba_blocks + ftl.config.cba_blocks) * 8
        assert len(ftl.umt) <= max_entries


class TestWearLeveling:
    def test_wear_leveling_narrows_erase_spread(self):
        from repro.flash import wear_summary

        def run(threshold):
            ftl = make_lazy(blocks=48, logical=96, wear_threshold=threshold)
            rng = random.Random(3)
            # Skewed workload: hot pages hammer a few blocks.
            for i in range(12000):
                lpn = rng.randrange(12) if rng.random() < 0.9 \
                    else rng.randrange(96)
                ftl.write(lpn, i)
            counts = [
                c for b, c in enumerate(ftl.flash.erase_counts())
                if b not in (0, 1)
            ]
            return wear_summary(counts)["cv"]

        assert run(threshold=4) <= run(threshold=None) * 1.05


class TestValidation:
    def test_device_too_small(self):
        flash = NandFlash(FlashGeometry(num_blocks=10, pages_per_block=8,
                                        page_size=64))
        with pytest.raises(ValueError):
            LazyFTL(flash, logical_pages=64)

    def test_lpn_bounds(self):
        ftl = make_lazy()
        with pytest.raises(ValueError):
            ftl.write(96, "x")
