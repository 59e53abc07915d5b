"""Unit tests for the MappingStore (translation pages, GTD, its blocks).

The store is one class behind two owners, so the behaviour tests run
twice: the base classes under LazyFTL's destination policy (never
reclaim), their ``...UnderDftlPolicy`` subclasses under DFTL's (reclaim
when the pool is low, except inside GC).  Each store is the one the
scheme itself builds, so the policy under test is the real one.
"""

from array import array

from repro.core import LazyFTL
from repro.flash import (
    FlashGeometry,
    NandFlash,
    PageState,
    SequenceCounter,
    UNIT_TIMING,
)
from repro.ftl import DftlFTL
from repro.ftl.mapping import LpnsByPage, MappingStore
from repro.ftl.pool import BlockPool
from repro.ftl.stats import FtlStats
from repro.perf.maptable import UNMAPPED

#: Six translation pages of 16 entries (64-byte pages, 4-byte entries).
LOGICAL_PAGES = 6 * 16


def make_flash(pages=4, blocks=96):
    return NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages, page_size=64),
        timing=UNIT_TIMING,
    )


def lazy_store(pages=4, flash=None):
    return LazyFTL(flash or make_flash(pages), LOGICAL_PAGES).mapping_store


def dftl_store(pages=4, flash=None):
    return DftlFTL(flash or make_flash(pages), LOGICAL_PAGES)._maps


def ignore(displaced):
    pass


def commit(store, groups, on_displaced=ignore):
    """``store.commit`` of ``tvpn -> [(lpn, new_ppn), ...]`` groups."""
    new_ppn = {lpn: ppn for pairs in groups.values() for lpn, ppn in pairs}
    return store.commit(
        {tvpn: [lpn for lpn, _ in pairs] for tvpn, pairs in groups.items()},
        new_ppn, on_displaced)


class TestLpnsByPage:
    """The by-page index the UMT and DFTL's dirty CMT entries share."""

    def test_groups_by_translation_page_and_drops_empty_pages(self):
        index = LpnsByPage(16)
        for lpn in (3, 17, 5, 3, 40):
            index.add(lpn)
        assert index.pages == {0: {3, 5}, 1: {17}, 2: {40}}
        index.discard(17)
        index.discard(17)                 # absent: no-op
        index.discard(99)                 # page never indexed: no-op
        assert index.pages == {0: {3, 5}, 2: {40}}
        index.discard(40)
        index.discard(3)
        assert index.pages == {0: {5}}


class TestLookupAndCommit:
    make_store = staticmethod(lazy_store)

    def test_unmapped_lookup_free(self):
        store = self.make_store()
        ppn, latency = store.lookup(0)
        assert ppn is None
        assert latency == 0.0
        assert store.stats.map_reads == 0

    def test_commit_then_lookup(self):
        store = self.make_store()
        commit(store, {0: [(3, 99)]})
        ppn, latency = store.lookup(3)
        assert ppn == 99
        assert latency == 1.0  # one translation page read
        assert store.stats.map_writes == 1
        assert store.stats.batched_commits == 1

    def test_commit_batches_same_page(self):
        store = self.make_store()
        commit(store, {0: [(0, 10), (1, 11), (2, 12)]})
        assert store.stats.map_writes == 1
        assert store.stats.batched_commits == 3

    def test_commit_reports_superseded(self):
        store = self.make_store()
        superseded = []
        commit(store, {0: [(3, 99)]})
        commit(store, {0: [(3, 120)]}, superseded.extend)
        assert superseded == [(3, 99)]
        assert store.lookup(3)[0] == 120

    def test_recommit_same_value_not_superseded(self):
        store = self.make_store()
        commit(store, {0: [(3, 99)]})
        called = []
        commit(store, {0: [(3, 99)]}, called.append)
        assert called == []

    def test_old_gmt_page_invalidated_on_rewrite(self):
        store = self.make_store()
        commit(store, {0: [(0, 10)]})
        first = store.gtd.get(0)
        commit(store, {0: [(1, 11)]})
        second = store.gtd.get(0)
        assert first != second
        assert store.flash.page_state(first) is PageState.INVALID

    def test_program_rewrites_a_loaded_page(self):
        # The read-modify-write DFTL's GC does without going through commit.
        store = self.make_store()
        content, latency = store.load(2)
        assert content == array("q", [UNMAPPED] * 16) and latency == 0.0
        content[1] = 77
        store.program(2, content)
        first = store.gtd.get(2)
        content, latency = store.load(2)
        assert content[1] == 77 and latency == 1.0
        # An editable copy: the flash page keeps what was programmed.
        assert content is not store.flash.page_data[first]
        assert store.lookup(32) == (None, 1.0)
        content[2] = 78
        store.program(2, content)
        assert store.flash.page_state(first) is PageState.INVALID
        assert store.lookup(33)[0] == 77
        assert store.lookup(34)[0] == 78
        assert store.stats.map_writes == 2
        assert store.stats.batched_commits == 0


class TestLookupAndCommitUnderDftlPolicy(TestLookupAndCommit):
    make_store = staticmethod(dftl_store)


class TestFrontierAndGC:
    make_store = staticmethod(lazy_store)

    def test_frontier_retires_when_full(self):
        store = self.make_store(pages=2)
        for tvpn in range(3):
            commit(store, {tvpn: [(tvpn * 16, tvpn)]})
        assert len(store.full_blocks) >= 1

    def test_collect_relocates_valid_pages(self):
        store = self.make_store(pages=2)
        # Fill one mapping block with two live GMT pages, retire it.
        commit(store, {0: [(0, 1)]})
        commit(store, {1: [(16, 2)]})
        commit(store, {2: [(32, 3)]})
        victim = next(iter(store.full_blocks))
        copies_before = store.stats.gc_page_copies
        store.collect(victim)
        assert store.stats.gc_page_copies > copies_before
        assert victim not in store.full_blocks
        # The directory is exact after relocation: every entry names a
        # valid mapping page outside the victim that says so itself.
        flash = store.flash
        for tvpn, tppn in store.gtd.items():
            assert flash.geometry.block_of(tppn) != victim
            assert flash.page_state(tppn) is PageState.VALID
            assert flash.oob(tppn).lpn == tvpn
        assert store.lookup(0)[0] == 1
        assert store.lookup(16)[0] == 2
        assert store.lookup(32)[0] == 3
        store.flash.erase_block(victim)  # caller's job; must not raise

    def test_all_blocks_listing(self):
        store = self.make_store()
        assert store.all_blocks() == []
        commit(store, {0: [(0, 1)]})
        assert store.frontier in store.all_blocks()


class TestFrontierAndGCUnderDftlPolicy(TestFrontierAndGC):
    make_store = staticmethod(dftl_store)


class TestRamBytes:
    def test_the_gtd_is_all_the_ram(self):
        """No translation page is held in RAM: 4 bytes per GTD entry."""
        assert lazy_store().ram_bytes() == 6 * 4
        assert dftl_store().ram_bytes() == 6 * 4


class TestSnapshotRestore:
    make_store = staticmethod(lazy_store)

    def test_roundtrip(self):
        store = self.make_store(pages=2)
        for value in range(3):  # three full blocks ...
            commit(store, {0: [(0, value)], 2: [(33, 6)]})
        commit(store, {1: [(16, 9)]})  # ... one open
        assert len(store.full_blocks) == 3
        snap = store.snapshot()
        other = self.make_store(flash=store.flash)  # same device
        other.restore(snap)
        assert other.gtd.snapshot() == store.gtd.snapshot()
        assert other.full_blocks == store.full_blocks
        assert other.frontier == store.frontier
        assert other.lookup(0) == store.lookup(0) == (2, 1.0)
        assert other.lookup(33)[0] == 6


class TestSnapshotRestoreUnderDftlPolicy(TestSnapshotRestore):
    make_store = staticmethod(dftl_store)


class TestReserveBeforeSnapshot:
    def test_checkout_sees_what_the_reservation_wrote(self):
        flash = make_flash()
        pool = BlockPool(range(flash.geometry.num_blocks))
        reclaims = []

        def destination(frontier):
            # DFTL's shape: the first request for room runs a GC pass
            # that moves lpn 5 and writes its new location into
            # translation page 0 - the very page being checked out.
            if not reclaims:
                reclaims.append("gc")
                content, _ = store.load(0)
                content[5] = 500
                store.program(0, content)
            pbn = frontier.take(0)
            return 3.0, frontier.open() if pbn is None else pbn

        store = MappingStore(flash, pool, FtlStats(), SequenceCounter(),
                             num_tvpns=6, destination=destination)
        commit(store, {0: [(5, 50), (6, 60)]})

        reclaims.clear()
        content, latency = store.checkout(0)
        assert reclaims == ["gc"]
        assert content[5] == 500  # not the 50 from before the reservation
        assert latency == 3.0 + 1.0  # making room + one page read

        # commit goes through the same door.
        content[5] = 50
        store.program(0, content)
        reclaims.clear()
        commit(store, {0: [(6, 61)]})
        assert store.lookup(5)[0] == 500
        assert store.lookup(6)[0] == 61
