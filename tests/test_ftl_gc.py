"""Unit tests for the shared garbage collector (repro.ftl.gc_policy).

The conformance suite exercises the collector under every page-mapping
scheme; these pin down the driver's own contract with a toy owner whose
"relocation" simply drops the victim's live pages.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.flash import (
    FlashGeometry, NandFlash, OOBData, SequenceCounter, UNIT_TIMING)
from repro.ftl import FtlStats, OutOfBlocksError
from repro.ftl.gc_policy import (
    GarbageCollector,
    recycle_block,
    select_cost_benefit,
    select_greedy,
)
from repro.ftl.pool import BlockPool, VictimPool
from repro.obs import JsonlSink, Tracer

PAGES = 4
TOOL = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "tools" / "check_trace_schema.py"
)


class Owner:
    """A device, a pool and a collector whose relocate drops live pages."""

    def __init__(self, relocate=None, maps=None, threshold=1, **device):
        self.flash = NandFlash(
            FlashGeometry(num_blocks=6, pages_per_block=PAGES, page_size=64),
            timing=UNIT_TIMING, **device)
        self.pool = BlockPool.for_device(self.flash)
        self.stats = FtlStats()
        self.seq = SequenceCounter()
        self.seen_active = []
        self.gc = GarbageCollector(
            self.flash, self.pool, self.stats, self.seq, threshold,
            relocate or self.drop, maps)

    def drop(self, pbn):
        self.seen_active.append(self.gc.active)
        for ppn in self.flash.valid_ppns(pbn):
            self.flash.invalidate_page(ppn)
        return 7.0

    def fill(self, valid, programmed=PAGES):
        """Program ``programmed`` pages of a pool block (full by default),
        keep ``valid`` of them live, retire it to the victim pool."""
        pbn = self.pool.allocate()
        for off in range(programmed):
            self.flash.program_page(
                pbn * PAGES + off, off, OOBData(off, self.seq.next()))
        for off in range(valid, programmed):
            self.flash.invalidate_page(pbn * PAGES + off)
        self.gc.blocks.add(pbn)
        return pbn

    def sealed(self, pbn):
        """A block's seal by definition: its last programmed page's seq."""
        last = max(self.flash.write_ptr[pbn] - 1, 0)
        return self.flash.oob_seq[pbn * PAGES + last]

    def definition(self):
        """:func:`select_cost_benefit` over the victim pool, now."""
        return select_cost_benefit(
            self.gc.blocks, self.flash.valid_count, self.sealed,
            self.seq.current, PAGES)

    def trace_to(self, path):
        tracer = Tracer(sinks=[JsonlSink(str(path))])
        tracer.begin_run("toy")
        self.flash.tracer = tracer
        return tracer


def assert_trace_balanced(path):
    proc = subprocess.run([sys.executable, TOOL, str(path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSelect:
    """The data victim is :func:`select_cost_benefit`'s, greedy's on the
    free pool's last block."""

    def test_fewest_valid_wins(self):
        owner = Owner()
        owner.fill(3)
        best = owner.fill(1)
        owner.fill(2)
        assert owner.gc.select() == best == owner.definition()

    def test_an_old_block_beats_a_young_emptier_one(self):
        owner = Owner()
        old = owner.fill(2)                   # sealed at 3
        owner.seq.take(40)
        young = owner.fill(1)                 # sealed at 47; now is 48
        # 2 * 45 / 6 = 15 against 3 * 1 / 5: age outweighs one page.
        assert owner.gc.select() == old == owner.definition()
        assert select_greedy(owner.gc.blocks, owner.flash.valid_count) \
            == young

    def test_on_the_last_block_greedy_applies(self):
        owner = Owner()
        owner.fill(2)
        owner.seq.take(40)
        young = owner.fill(1)
        while len(owner.pool) > 1:
            owner.pool.allocate()
        assert owner.gc.select() == young

    def test_a_partially_written_block_is_sealed_at_its_last_page(self):
        """A block closed before it filled (LazyFTL converts an open
        frontier block) ages from its last programmed page; its unwritten
        pages count as reclaimed."""
        owner = Owner()
        full = owner.fill(1)                  # sealed at 3
        owner.seq.take(6)
        partial = owner.fill(1, programmed=2)  # sealed at 11; now is 12
        assert owner.gc.blocks.seal(partial) == 11 == owner.sealed(partial)
        assert owner.gc.blocks.seal(full) == 3
        # Equal counts: the older block scores higher.
        assert owner.gc.select() == full == owner.definition()

    def test_nothing_reclaimable(self):
        owner = Owner()
        assert owner.gc.select() is None      # no candidate at all
        owner.fill(PAGES)
        assert owner.gc.select() is None      # the best is fully valid
        with pytest.raises(OutOfBlocksError):
            owner.gc.collect()
        assert owner.stats.gc_runs == 0

    def test_translation_blocks_are_candidates(self):
        class Maps:
            collected = []

            def collect(self, pbn):
                self.collected.append(pbn)
                self.full_blocks.discard(pbn)
                return 3.0

        maps = Maps()
        owner = Owner(maps=maps)
        # The store's candidates are a victim pool over the same device.
        maps.full_blocks = VictimPool(owner.flash)
        owner.fill(2)
        map_block = owner.fill(0)
        owner.gc.blocks.discard(map_block)
        maps.full_blocks.add(map_block)
        assert owner.gc.select() == map_block
        latency = owner.gc.collect()
        assert maps.collected == [map_block]
        assert owner.seen_active == []        # relocate was not asked
        assert latency == 3.0 + UNIT_TIMING.block_erase_us
        assert map_block in owner.pool


class TestCollect:
    def test_one_pass(self):
        owner = Owner()
        victim = owner.fill(1)
        latency = owner.gc.collect()
        assert latency == 7.0 + UNIT_TIMING.block_erase_us
        assert victim in owner.pool and victim not in owner.gc.blocks
        assert (owner.stats.gc_runs, owner.stats.gc_erases) == (1, 1)
        assert owner.seen_active == [True] and not owner.gc.active

    def test_forced_victim_skips_the_fully_valid_refusal(self):
        owner = Owner()
        owner.fill(1)
        coldest = owner.fill(PAGES)
        owner.gc.collect(coldest)
        assert coldest in owner.pool
        assert owner.stats.gc_runs == 1

    def test_reclaim_runs_until_above_threshold(self):
        owner = Owner(threshold=2)
        for valid in (1, 2, 3, 0):
            owner.fill(valid)
        assert len(owner.pool) == 2
        owner.gc.reclaim()
        assert len(owner.pool) == 3
        assert owner.stats.gc_runs == 1

    def test_relocate_raising_resets_active_and_closes_span(self, tmp_path):
        def relocate(pbn):
            raise RuntimeError("relocation failed")

        owner = Owner(relocate=relocate)
        victim = owner.fill(1)
        tracer = owner.trace_to(tmp_path / "raise.jsonl")
        with pytest.raises(RuntimeError):
            owner.gc.collect()
        tracer.close()
        assert not owner.gc.active
        assert victim in owner.gc.blocks      # nothing was recycled
        assert_trace_balanced(tmp_path / "raise.jsonl")

    def test_worn_out_victim_is_retired(self, tmp_path):
        owner = Owner(endurance=1)
        tracer = owner.trace_to(tmp_path / "retire.jsonl")
        # FIFO pool: the seventh allocation reuses the first block, whose
        # second erase exceeds the budget.
        for _ in range(7):
            victim = owner.fill(1)
            latency = owner.gc.collect()
        tracer.close()
        assert owner.stats.bad_blocks_retired == 1
        assert owner.stats.gc_erases == 6
        assert latency == 7.0                 # the failed erase returns 0
        assert owner.flash.is_bad[victim]
        assert victim not in owner.pool and victim not in owner.gc.blocks
        assert not owner.gc.active
        assert_trace_balanced(tmp_path / "retire.jsonl")


class TestRecycleBlock:
    def test_good_block_is_released(self):
        owner = Owner()
        pbn = owner.pool.allocate()
        latency = recycle_block(owner.flash, owner.pool, owner.stats, pbn)
        assert latency == UNIT_TIMING.block_erase_us
        assert pbn in owner.pool and owner.stats.gc_erases == 1

    def test_bad_block_is_never_released(self):
        owner = Owner(initial_bad_blocks=[4])
        assert 4 not in owner.pool
        assert recycle_block(owner.flash, owner.pool, owner.stats, 4) == 0.0
        assert 4 not in owner.pool
        assert owner.stats.bad_blocks_retired == 1
        assert owner.stats.gc_erases == 0
