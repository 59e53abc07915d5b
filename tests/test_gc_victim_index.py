"""The GC victim index answers exactly what the linear scan would.

``GarbageCollector.select()`` does not walk its candidates: they sit in
valid-count buckets (:class:`~repro.ftl.pool.VictimPool`) that are
re-sorted from the device's list of invalidated blocks, each bucket with
its oldest member cached.  Among data blocks the policy is
:func:`~repro.ftl.gc_policy.select_cost_benefit` - greedy on the free
pool's last block - and among translation blocks
:func:`~repro.ftl.gc_policy.select_greedy`, a fully-valid best refused
by either; between the data and the translation pool it is
:func:`~repro.ftl.gc_policy.select_victim`.  These tests pin that rule's
boundary and hold the index to the definitions three ways: a hypothesis
state machine over a bare device, an oracle wrapped around every pick of
real steady-state runs, and a count of how many valid counts a pick reads.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import LazyConfig
from repro.flash import (
    UNIT_TIMING,
    FlashGeometry,
    NandFlash,
    OOBData,
    PageState,
    SequenceCounter,
)
from repro.ftl import FtlStats
from repro.ftl.gc_policy import (
    GarbageCollector,
    select_cost_benefit,
    select_greedy,
    select_victim,
)
from repro.ftl.pool import BlockPool, VictimPool
from repro.sim.factory import standard_setup

BLOCKS = 8
PAGES = 4


def sealed(flash):
    """A block's seal by definition: the OOB seq of its last programmed
    page (an empty block's first page: 0)."""
    ppb = flash.geometry.pages_per_block
    return lambda pbn: \
        flash.oob_seq[pbn * ppb + max(flash.write_ptr[pbn] - 1, 0)]


def scan(pool, flash, now=None):
    """A pool's best ``(valid, pbn)`` by the linear scan - greedy, or
    cost-benefit at ``now`` - a fully-valid best refused: what
    :meth:`VictimPool.pick` / :meth:`VictimPool.pick_cost_benefit` must
    answer."""
    ppb = flash.geometry.pages_per_block
    if now is None:
        best = select_greedy(pool, flash.valid_count)
    else:
        best = select_cost_benefit(
            pool, flash.valid_count, sealed(flash), now, ppb)
    if best is None or flash.valid_count[best] == ppb:
        return None
    return flash.valid_count[best], best


def oracle(gc):
    """The victim by the definition: the policy over two linear scans."""
    maps = None if gc.maps is None else scan(gc.maps.full_blocks, gc.flash)
    last_block = len(gc.pool) <= 1
    now = None if last_block else gc.seq.current
    return select_victim(scan(gc.blocks, gc.flash, now), maps, last_block)


class TestSelectVictim:
    """The rule between the two pools, on bare ``(valid, pbn)`` picks."""

    def test_a_quarter_as_valid_wins(self):
        assert select_victim((8, 5), (2, 9), False) == 9     # 4*m == d
        assert select_victim((40, 5), (0, 9), False) == 9

    def test_one_page_over_a_quarter_loses(self):
        assert select_victim((7, 5), (2, 9), False) == 5     # 4*m == d + 1
        assert select_victim((40, 5), (11, 9), False) == 5
        assert select_victim((3, 9), (3, 5), False) == 9     # the old tie

    def test_no_data_candidate_takes_the_translation_block(self):
        assert select_victim(None, (15, 9), False) == 9
        assert select_victim((15, 5), None, False) == 5

    def test_nothing_reclaimable_is_refused(self):
        assert select_victim(None, None, False) is None
        assert select_victim(None, None, True) is None

    def test_on_the_last_block_the_plain_greedy_order_applies(self):
        assert select_victim((7, 5), (6, 9), True) == 9
        assert select_victim((6, 5), (7, 9), True) == 5
        assert select_victim((3, 7), (3, 2), True) == 2      # tie: lower pbn
        assert select_victim((3, 2), (3, 7), True) == 2
        assert select_victim(None, (15, 9), True) == 9

    def test_select_reads_the_pool_level_it_decides_liveness_at(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=BLOCKS, pages_per_block=PAGES,
                          page_size=64), timing=UNIT_TIMING)

        class Maps:
            full_blocks = VictimPool(flash)

        gc = GarbageCollector(flash, BlockPool([6, 7]), FtlStats(),
                              SequenceCounter(), 1,
                              relocate=lambda pbn: 0.0, maps=Maps())
        for pbn in (0, 1):
            for off in range(PAGES):
                flash.program_page(pbn * PAGES + off, off)
        gc.blocks.add(0)
        Maps.full_blocks.add(1)
        assert gc.select() is None            # fully-valid bests: refused
        flash.invalidate_page(0)              # data block: 3 of 4 valid
        flash.invalidate_page(PAGES)
        flash.invalidate_page(PAGES + 1)      # translation block: 2 of 4
        assert gc.select() == 0               # 4 * 2 > 3: deferred
        gc.pool.allocate()
        assert gc.select() == 1               # last block: greedy


class TestVictimPoolIsASet:
    def make(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=BLOCKS, pages_per_block=PAGES,
                          page_size=64), timing=UNIT_TIMING)
        return flash, VictimPool(flash)

    def test_set_surface(self):
        _, pool = self.make()
        assert len(pool) == 0 and 3 not in pool and pool == set()
        pool.add(3)
        pool.add(3)
        pool.update([5, 1])
        assert len(pool) == 3 and 3 in pool
        assert sorted(pool) == [1, 3, 5]
        assert pool == {1, 3, 5} and {1, 3, 5} == pool
        assert pool != {1, 3}
        pool.discard(3)
        pool.discard(3)
        assert pool == {1, 5}
        other = VictimPool(pool._flash)
        other.update(pool)
        assert other == pool
        pool.clear()
        assert len(pool) == 0 and list(pool) == [] and pool.pick() is None

    def test_pick_follows_the_count_it_was_told_about(self):
        flash, pool = self.make()
        for pbn in (2, 4):
            for off in range(PAGES):
                flash.program_page(pbn * PAGES + off, off)
            pool.add(pbn)
        assert pool.pick() is None            # both fully valid: refused
        flash.invalidate_page(4 * PAGES)
        assert pool.pick() is None            # not told yet
        pool.refresh(flash.take_invalidated())
        assert pool.pick() == (PAGES - 1, 4)
        flash.invalidate_page(2 * PAGES)
        pool.refresh(flash.take_invalidated())
        assert pool.pick() == (PAGES - 1, 2)  # tie: the lower pbn

    def test_refresh_ignores_blocks_it_does_not_hold(self):
        flash, pool = self.make()
        flash.program_page(0, "x")
        flash.invalidate_page(0)
        pool.refresh(flash.take_invalidated())
        assert len(pool) == 0
        pool.add(0)                           # bucketed at its count now
        assert pool.pick() == (0, 0)


class VictimIndexMachine(RuleBasedStateMachine):
    """Arbitrary program / invalidate / membership churn on a small
    device; after every step both pools' picks equal the linear scan.

    The one rule the owners keep is kept here too: a candidate is never
    programmed (it is full, or was closed by conversion), so only
    invalidation moves its count.  Every program draws a seq from the
    collector's counter, so seals - and the oldest member each bucket
    caches - move with the churn.
    """

    @initialize()
    def setup(self):
        self.flash = NandFlash(
            FlashGeometry(num_blocks=BLOCKS, pages_per_block=PAGES,
                          page_size=64), timing=UNIT_TIMING)

        class Maps:
            full_blocks = VictimPool(self.flash)

        self.seq = SequenceCounter()
        self.gc = GarbageCollector(
            self.flash, BlockPool([]), FtlStats(), self.seq, 1,
            relocate=lambda pbn: 0.0, maps=Maps())
        self.pools = (self.gc.blocks, self.gc.maps.full_blocks)

    def program_next(self, pbn):
        offset = self.flash.write_ptr[pbn]
        self.flash.program_page(
            pbn * PAGES + offset, None, OOBData(offset, self.seq.next()))

    @rule(n=st.integers(1, 40))
    def tick(self, n):
        """Time passes elsewhere on the device."""
        self.seq.take(n)

    @rule(free=st.integers(0, 3))
    def free_pool(self, free):
        """Only its length is read: both sides of ``len(pool) <= 1``."""
        self.gc.pool.refill(range(BLOCKS, BLOCKS + free))

    def member(self, pbn):
        return any(pbn in pool for pool in self.pools)

    @rule(pbn=st.integers(0, BLOCKS - 1))
    def program(self, pbn):
        if self.member(pbn) or self.flash.write_ptr[pbn] >= PAGES:
            return
        self.program_next(pbn)

    @rule(ppn=st.integers(0, BLOCKS * PAGES - 1))
    def invalidate(self, ppn):
        if self.flash.page_states[ppn] == PageState.VALID:
            self.flash.invalidate_page(ppn)

    @rule(pbn=st.integers(0, BLOCKS - 1), which=st.integers(0, 1))
    def add(self, pbn, which):
        if not self.member(pbn):
            self.pools[which].add(pbn)

    def drop(self, pbn):
        for pool in self.pools:
            pool.discard(pbn)

    @rule(pbn=st.integers(0, BLOCKS - 1))
    def discard(self, pbn):
        self.drop(pbn)

    @rule(pbn=st.integers(0, BLOCKS - 1), refill=st.integers(0, PAGES),
          which=st.integers(0, 1))
    def erase_and_re_add(self, pbn, refill, which):
        """A GC pass and the block's next life, in one step."""
        self.drop(pbn)
        for ppn in self.flash.valid_ppns(pbn):
            self.flash.invalidate_page(ppn)
        self.flash.erase_block(pbn)
        for _ in range(refill):
            self.program_next(pbn)
        self.pools[which].add(pbn)

    @rule(drained=st.booleans())
    def recover(self, drained):
        """Refill in place, as ``_restore_blocks`` / ``restore`` do - on
        a device whose list the dead instance may have drained."""
        if drained:
            self.flash.take_invalidated()
        for pool in self.pools:
            members = sorted(pool)
            pool.clear()
            pool.update(members)

    @rule()
    def select(self):
        expected = oracle(self.gc)
        assert self.gc.select() == expected
        assert not self.flash.invalidated     # drained

    @invariant()
    def picks_equal_the_linear_scan(self):
        flash = self.flash
        now = self.seq.current
        # Peek, do not drain: refresh is idempotent, and the list keeps
        # growing across steps until ``select`` takes it.  Both picks of
        # both pools: the translation pool is refreshed, never
        # cost-benefit-picked, by the collector, and must stay exact too.
        for pool in self.pools:
            pool.refresh(set(flash.invalidated))
            assert pool.pick() == scan(pool, flash)
            assert pool.pick_cost_benefit(now) == scan(pool, flash, now)
            for pbn in pool:
                assert pool.seal(pbn) == sealed(flash)(pbn)
        assert not set(self.pools[0]) & set(self.pools[1])


VictimIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None)
TestVictimIndexMachine = VictimIndexMachine.TestCase


# ----------------------------------------------------------------------
# Inside real runs
# ----------------------------------------------------------------------
def steady_ftl(scheme, channels=1, num_blocks=96, pages_per_block=16):
    options = {}
    if scheme == "LazyFTL":
        options["config"] = LazyConfig(
            uba_blocks=6, cba_blocks=3, gc_free_threshold=6)
    elif scheme == "DFTL":
        options["cmt_entries"] = 64
    flash, ftl, logical = standard_setup(
        scheme, num_blocks=num_blocks, pages_per_block=pages_per_block,
        page_size=512, logical_fraction=0.7, timing=UNIT_TIMING,
        channels=channels, **options)
    return flash, ftl, logical


def churn(flash, ftl, logical, rounds, seed=4):
    """Sequential fill, then skewed overwrites: GC steady state."""
    rng = random.Random(seed)
    hot = max(1, logical // 5)
    for lpn in range(logical):
        flash.begin_host_op()
        ftl.write(lpn, lpn)
    for i in range(rounds * logical):
        lpn = rng.randrange(hot) if rng.random() < 0.8 \
            else rng.randrange(logical)
        flash.begin_host_op()
        ftl.write(lpn, i)


@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL", "ideal"])
def test_every_pick_of_a_steady_run_equals_the_linear_scan(scheme, channels):
    flash, ftl, logical = steady_ftl(scheme, channels)
    gc = ftl._gc
    indexed_select = gc.select
    picks = []
    unlike_greedy = []

    def checked_select():
        expected = oracle(gc)             # reads only; before the drain
        greedy = scan(gc.blocks, flash)
        victim = indexed_select()
        assert victim == expected
        picks.append(gc.maps is not None and victim in gc.maps.full_blocks)
        unlike_greedy.append(victim in gc.blocks and victim != greedy[1])
        return victim

    gc.select = checked_select
    churn(flash, ftl, logical, rounds=4)
    assert len(picks) > 50
    # Both pools were in play wherever there are two, and age decided
    # some data victims.
    assert any(picks) == (gc.maps is not None) and not all(picks)
    assert any(unlike_greedy)
    for lpn in range(0, logical, 7):
        assert ftl.read(lpn).data is not None


class CountingList(list):
    """A valid-count array that counts how often it is read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


@pytest.mark.parametrize("num_blocks", [256, 1024])
@pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL"])
def test_a_pick_reads_only_the_blocks_invalidated_since_the_last(
        scheme, num_blocks):
    """No scan left: ``select()`` reads one valid count per block the
    device lists as invalidated - whatever the size of the device."""
    flash, ftl, logical = steady_ftl(
        scheme, num_blocks=num_blocks, pages_per_block=8)
    counts = CountingList(flash.valid_count)
    flash.valid_count = counts  # ftlint: disable=FTL003 - same counts, counted
    gc = ftl._gc
    indexed_select = gc.select
    excess = []

    def counted_select():
        pending = len(flash.invalidated)
        before = counts.reads
        victim = indexed_select()
        excess.append(counts.reads - before - pending)
        return victim

    gc.select = counted_select
    churn(flash, ftl, logical, rounds=1)
    assert len(excess) > num_blocks // 8
    assert max(excess) <= 0
