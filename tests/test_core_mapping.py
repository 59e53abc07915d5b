"""Unit tests for the MappingStore (GMT pages, GTD, MBA management)."""

import pytest

from repro.core.mapping import MappingStore
from repro.flash import (
    FlashGeometry,
    NandFlash,
    OOBData,
    PageKind,
    PageState,
    SequenceCounter,
    UNIT_TIMING,
)
from repro.ftl.pool import BlockPool
from repro.ftl.stats import FtlStats


def make_store(cache_pages=0, blocks=16, pages=4, page_size=64):
    flash = NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages,
                      page_size=page_size),
        timing=UNIT_TIMING,
    )
    pool = BlockPool(range(blocks))
    stats = FtlStats()
    seq = SequenceCounter()
    store = MappingStore(flash, pool, stats, seq, num_tvpns=6,
                         cache_pages=cache_pages)
    return store


class TestLookupAndCommit:
    def test_unmapped_lookup_free(self):
        store = make_store()
        ppn, latency = store.lookup(0)
        assert ppn is None
        assert latency == 0.0
        assert store.stats.map_reads == 0

    def test_commit_then_lookup(self):
        store = make_store()
        store.commit({0: [(3, 99)]}, on_superseded=lambda l, p: None)
        ppn, latency = store.lookup(3)
        assert ppn == 99
        assert latency == 1.0  # one GMT page read
        assert store.stats.map_writes == 1
        assert store.stats.batched_commits == 1

    def test_commit_batches_same_page(self):
        store = make_store()
        store.commit({0: [(0, 10), (1, 11), (2, 12)]},
                     on_superseded=lambda l, p: None)
        assert store.stats.map_writes == 1
        assert store.stats.batched_commits == 3

    def test_commit_reports_superseded(self):
        store = make_store()
        superseded = []
        store.commit({0: [(3, 99)]}, on_superseded=lambda l, p: None)
        store.commit({0: [(3, 120)]},
                     on_superseded=lambda l, p: superseded.append((l, p)))
        assert superseded == [(3, 99)]
        assert store.lookup(3)[0] == 120

    def test_recommit_same_value_not_superseded(self):
        store = make_store()
        store.commit({0: [(3, 99)]}, on_superseded=lambda l, p: None)
        called = []
        store.commit({0: [(3, 99)]},
                     on_superseded=lambda l, p: called.append((l, p)))
        assert called == []

    def test_old_gmt_page_invalidated_on_rewrite(self):
        store = make_store()
        store.commit({0: [(0, 10)]}, on_superseded=lambda l, p: None)
        first = store.gtd.get(0)
        store.commit({0: [(1, 11)]}, on_superseded=lambda l, p: None)
        second = store.gtd.get(0)
        assert first != second
        assert store.flash.page_state(first) is PageState.INVALID


class TestFrontierAndGC:
    def test_frontier_retires_when_full(self):
        store = make_store(pages=2)
        for tvpn in range(3):
            store.commit({tvpn: [(tvpn * 16, tvpn)]},
                         on_superseded=lambda l, p: None)
        assert len(store.full_blocks) >= 1

    def test_collect_relocates_valid_pages(self):
        store = make_store(pages=2)
        # Fill one mapping block with two live GMT pages, retire it.
        store.commit({0: [(0, 1)]}, on_superseded=lambda l, p: None)
        store.commit({1: [(16, 2)]}, on_superseded=lambda l, p: None)
        store.commit({2: [(32, 3)]}, on_superseded=lambda l, p: None)
        victim = next(iter(store.full_blocks))
        copies_before = store.stats.gc_page_copies
        store.collect(victim)
        assert store.stats.gc_page_copies > copies_before
        # Every GTD entry still resolves after relocation.
        assert store.lookup(0)[0] == 1
        assert store.lookup(16)[0] == 2
        store.flash.erase_block(victim)  # caller's job; must not raise

    def test_all_blocks_listing(self):
        store = make_store()
        assert store.all_blocks() == []
        store.commit({0: [(0, 1)]}, on_superseded=lambda l, p: None)
        assert store.frontier in store.all_blocks()


class TestCache:
    def test_cache_hit_is_free(self):
        store = make_store(cache_pages=2)
        store.commit({0: [(0, 7)]}, on_superseded=lambda l, p: None)
        assert store.lookup(0) == (7, 0.0)  # programmed content is cached
        assert store.stats.map_reads == 0

    def test_cache_capacity_evicts_lru(self):
        store = make_store(cache_pages=1)
        store.commit({0: [(0, 7)]}, on_superseded=lambda l, p: None)
        store.commit({1: [(16, 8)]}, on_superseded=lambda l, p: None)
        # tvpn 0 was evicted by tvpn 1: lookup now reads flash.
        ppn, latency = store.lookup(0)
        assert ppn == 7
        assert latency == 1.0

    def test_cache_coherent_after_collect(self):
        store = make_store(cache_pages=4, pages=2)
        store.commit({0: [(0, 1)]}, on_superseded=lambda l, p: None)
        store.commit({1: [(16, 2)]}, on_superseded=lambda l, p: None)
        store.commit({2: [(32, 3)]}, on_superseded=lambda l, p: None)
        victim = next(iter(store.full_blocks))
        store.collect(victim)
        assert store.lookup(0)[0] == 1

    def test_ram_accounting(self):
        assert make_store(cache_pages=0).ram_bytes() == 6 * 4
        cached = make_store(cache_pages=2)
        assert cached.ram_bytes() == 6 * 4 + 2 * 16 * 4


class TestSnapshotRestore:
    def test_roundtrip(self):
        store = make_store()
        store.commit({0: [(0, 5)], 2: [(33, 6)]},
                     on_superseded=lambda l, p: None)
        snap = store.snapshot()
        other = make_store()
        other.flash = store.flash  # same device
        other.restore(snap)
        assert other.gtd.get(0) == store.gtd.get(0)
        assert other.frontier == store.frontier
