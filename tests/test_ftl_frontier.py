"""Unit and stateful tests for the write frontier (``repro.ftl.stripe``).

Every scheme's append path - ideal/DFTL host and GC destinations, DFTL
translation blocks, LazyFTL's UBA/CBA/MBA - runs through one
:class:`~repro.ftl.stripe.Frontier`, on every geometry.  The unit tests
pin its contract; the state machine drives arbitrary interleavings of
appends, early discards and block recycling at 1, 2 and 4 ways and, at
one way, checks the trace against the serial rule the frontier replaced:
keep the block until it is full, retire it, open the next.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.checks.flashsan import SanitizedNandFlash
from repro.flash import (
    UNIT_TIMING,
    FlashGeometry,
    NandFlash,
    OOBData,
    SequenceCounter,
    TimingModel,
)
from repro.ftl.pool import BlockPool, OutOfBlocksError
from repro.ftl.stats import FtlStats
from repro.ftl.stripe import (
    MAX_STRIPE_WAYS,
    Frontier,
    relocate,
    spare_block,
    stripe_ways,
)
from repro.obs.tracer import Tracer

PAGES = 4


#: Unequal read and program times, so clocks rarely tie.
TIMING = TimingModel(page_read_us=3.0, page_program_us=7.0,
                     block_erase_us=20.0)


def make(units=1, ways=None, blocks=16, pool_blocks=None, on_full=None,
         timing=UNIT_TIMING):
    """(flash, pool, frontier, retired) on a ``units``-channel device."""
    flash = NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=PAGES,
                      page_size=64, channels=units),
        timing=timing,
    )
    pool = BlockPool(range(blocks) if pool_blocks is None else pool_blocks)
    retired = []
    frontier = Frontier(
        flash, pool, stripe_ways(units) if ways is None else ways,
        retired.append if on_full is None else on_full,
    )
    return flash, pool, frontier, retired


def program(flash, pbn, count=1):
    """Append ``count`` pages to block ``pbn``."""
    for _ in range(count):
        flash.program_page(pbn * PAGES + flash.write_ptr[pbn], None,
                           OOBData(lpn=0, seq=0))


def append(flash, frontier, spare=0):
    """One append through the caller protocol; returns the block used."""
    pbn = frontier.take(spare)
    if pbn is None:
        pbn = frontier.open()
    program(flash, pbn)
    return pbn


class TestStripeWays:
    def test_one_way_at_one_unit(self):
        assert stripe_ways(1) == 1
        assert stripe_ways(1, capacity=8) == 1

    def test_capped_by_units_constant_and_capacity(self):
        assert stripe_ways(2) == 2
        assert stripe_ways(16) == MAX_STRIPE_WAYS
        assert stripe_ways(4, capacity=3) == 2  # one slot of headroom
        assert stripe_ways(4, capacity=2) == 1


class TestTakeAndOpen:
    def test_dry_rotation_asks_for_a_block_whatever_the_pool_holds(self):
        _, pool, frontier, _ = make(pool_blocks=[])
        assert frontier.take(0) is None
        assert frontier.take(99) is None
        with pytest.raises(OutOfBlocksError):
            frontier.open()
        assert len(pool) == 0

    def test_one_way_keeps_the_block_until_full_then_retires_it(self):
        flash, pool, frontier, retired = make()
        used = [append(flash, frontier) for _ in range(2 * PAGES + 1)]
        assert used == [0] * PAGES + [1] * PAGES + [2]
        assert retired == [0, 1]
        assert frontier.open_blocks == [2]
        assert len(pool) == 13

    def test_never_returns_a_full_block(self):
        flash, _, frontier, retired = make(units=2)
        for _ in range(5 * PAGES):
            pbn = frontier.take(0)
            if pbn is None:
                pbn = frontier.open()
            assert flash.write_ptr[pbn] < PAGES
            program(flash, pbn)
        assert len(retired) == len(set(retired))  # each exactly once

    def test_block_filled_behind_the_frontiers_back_is_retired(self):
        flash, _, frontier, retired = make()
        pbn = frontier.open()
        program(flash, pbn, PAGES)  # e.g. a batch epoch's program_run
        assert frontier.peek() == pbn  # peek may name a full block
        assert frontier.take(0) is None
        assert retired == [pbn]
        assert frontier.open_blocks == []

    def test_rotation_is_round_robin(self):
        flash, _, frontier, _ = make(units=2, pool_blocks=[0, 1])
        a, b = frontier.open(), frontier.open()
        used = [append(flash, frontier) for _ in range(4)]
        assert used == [a, b, a, b]

    def test_peek_names_the_block_take_looks_at_first(self):
        flash, _, frontier, _ = make(units=2, pool_blocks=[0, 1])
        assert frontier.peek() is None
        frontier.open()
        frontier.open()
        for _ in range(2 * PAGES - 1):
            expected = frontier.peek()
            assert append(flash, frontier) == expected

    def test_extra_way_opens_while_the_pool_can_spare_it(self):
        flash, pool, frontier, _ = make(units=2)
        first = append(flash, frontier)
        second = append(flash, frontier)  # extra way: pool can spare it
        assert frontier.open_blocks == [first, second]
        assert len(pool) == 14


class TestSpareRule:
    def test_extra_way_opens_only_above_the_spare(self):
        flash, pool, frontier, _ = make(units=2, pool_blocks=[0, 1, 2])
        first = frontier.open()
        assert len(pool) == 2
        assert frontier.take(2) == first      # 2 free is not > 2: keep going
        assert frontier.take(1) is None       # 2 free > 1: may open a way
        second = frontier.open()
        # Both ways open: the pool level no longer matters.
        assert {frontier.take(0), frontier.take(0)} == {first, second}

    def test_usable_block_beats_an_empty_pool(self):
        # The LazyFTL CBA defect: an extra way must not be demanded from
        # a pool that cannot spare it while an open block has room.
        flash, pool, frontier, _ = make(units=4, pool_blocks=[5])
        only = frontier.open()
        assert len(pool) == 0
        for _ in range(PAGES):
            assert frontier.take(1) == only
            program(flash, only)
        assert frontier.take(1) is None       # dry now: must open
        with pytest.raises(OutOfBlocksError):
            frontier.open()

    def test_one_way_never_asks_for_an_extra_block(self):
        flash, _, frontier, _ = make()
        pbn = frontier.open()
        assert [frontier.take(0) for _ in range(3)] == [pbn] * 3


def relocated(flash, frontier, count=PAGES):
    """Relocate a freshly programmed victim of ``count`` pages through
    :func:`relocate`; returns the page count of each ``program_run`` call
    it made, having checked that it made no ``program_page`` call outside
    one."""
    victim = frontier.pool.allocate()
    program(flash, victim, count)
    runs = []
    program_run, program_page = flash.program_run, flash.program_page

    def run_spy(ppns, datas, *oob_and_reads):
        runs.append(len(datas))
        flash.program_page = program_page  # the run's own calls
        try:
            return program_run(ppns, datas, *oob_and_reads)
        finally:
            flash.program_page = page_spy

    def page_spy(*args):
        raise AssertionError("relocate() programmed a page outside a run")

    flash.program_run, flash.program_page = run_spy, page_spy
    try:
        relocate(flash, frontier, flash.valid_ppns(victim), spare_block,
                 SequenceCounter(), FtlStats(), lambda pairs: None)
    finally:
        del flash.program_run, flash.program_page
    return runs


class TestRunLimit:
    """How far a pass may batch: the run plan (:meth:`Frontier.run_plan`)
    says where the pages after an ask would go, on any rotation, and the
    device is asked afresh every pass whether it takes runs longer than
    one page."""

    def test_one_way_on_a_plain_device_is_a_block(self):
        _, _, frontier, _ = make()
        pbn = frontier.open()
        plan, drawn = frontier.run_plan(pbn, iter(range(2 * PAGES)))
        assert list(plan) == list(range(pbn * PAGES, (pbn + 1) * PAGES))
        assert drawn == list(range(PAGES - 1))

    def test_several_ways_rotate_page_by_page(self):
        # Programs only, from a fresh host op: consecutive pages go to
        # consecutive blocks of the rotation; each block's pages stay
        # contiguous from its write pointer.
        flash, _, frontier, _ = make(units=4)
        opened = [frontier.open() for _ in range(4)]
        program(flash, opened[2], 2)
        flash.begin_host_op()
        held = frontier.take(0)
        assert held == opened[0]
        first = [pbn * PAGES + flash.write_ptr[pbn] for pbn in opened]
        plan, drawn = frontier.run_plan(held, iter([-1] * 6))
        assert plan == [first[0], first[1], first[2], first[3],
                        first[0] + 1, first[1] + 1, first[2] + 1]
        assert drawn == [-1] * 6
        # opened[2] takes the 3rd and 7th page; the 11th page's take
        # would find it full and evict it, so the plan ends before that
        # page, whose item it drew.
        flash.begin_host_op()
        frontier._cursor = 1
        plan, drawn = frontier.run_plan(held, iter([-1] * 20))
        assert len(plan) == 10 and len(drawn) == 10

    def test_a_busy_unit_gets_no_page_until_the_others_catch_up(self):
        flash, pool, frontier, _ = make(units=4, timing=TIMING)
        opened = [frontier.open() for _ in range(4)]
        victim = pool.allocate_on(1, 4)
        program(flash, victim, PAGES)
        flash.begin_host_op()
        flash.read_page(victim * PAGES)  # unit 1 is busy reading
        held = frontier.take(0)
        assert held == opened[0]
        plan, _ = frontier.run_plan(held, iter([-1, -1]))
        assert [ppn // PAGES for ppn in plan] == \
            [opened[0], opened[2], opened[3]]

    @pytest.mark.parametrize("runs", [True, False])
    def test_a_gc_pass_puts_its_copies_on_the_idle_units(self, runs):
        # The victim's unit is busy erasing, then reading the victim: the
        # pass programs every copy on the three idle units - in one run
        # per block fill, or page by page on a device that takes no runs.
        flash, pool, frontier, _ = make(units=4, timing=TIMING, blocks=32)
        opened = [frontier.open() for _ in range(4)]
        victim = pool.allocate_on(1, 4)
        program(flash, victim, PAGES)
        if not runs:
            flash.fault.arm_after_programs(10 ** 12)  # never trips
        flash.begin_host_op()
        flash.erase_block(pool.allocate_on(1, 4))
        moved = []
        relocate(flash, frontier, flash.valid_ppns(victim), spare_block,
                 SequenceCounter(), FtlStats(), moved.extend)
        assert len(moved) == PAGES
        assert {ppn // PAGES % 4 for _, ppn in moved} == {0, 2, 3}
        assert flash.write_ptr[opened[1]] == 0

    def test_one_way_over_several_units_is_a_block(self):
        _, _, frontier, _ = make(units=2, ways=1)
        pbn = frontier.open()
        assert len(frontier.run_plan(pbn, iter(range(2 * PAGES)))[0]) \
            == PAGES

    def test_a_plan_is_the_takes_it_stands_for(self):
        # Against the real thing, on random fills, clocks and reads: the
        # pages the plan names are those a take after each page's read
        # hands out, it draws one read per page after the first (and at
        # most one more), stops only where the next take evicts or
        # returns None, and leaves the cursor where the takes leave it.
        rng = random.Random(7)
        for _ in range(600):
            units = rng.choice([1, 2, 4, 4])
            ways = rng.randint(1, 4)
            flash, pool, frontier, _ = make(units=units, ways=ways,
                                            blocks=32, timing=TIMING)
            sources = [pool.allocate() for _ in range(4)]
            for pbn in sources:
                program(flash, pbn, PAGES)
            for _ in range(rng.randint(1, ways)):
                program(flash, frontier.open(), rng.randint(0, PAGES - 1))
            frontier._cursor = rng.randint(0, len(frontier.open_blocks))
            flash.begin_host_op()
            for _ in range(rng.randint(0, 8)):  # uneven clocks
                flash.read_page(rng.choice(sources) * PAGES)
            spare = rng.randint(0, 40)
            held = frontier.take(spare)
            if held is None:
                held = frontier.open()
            reads = [rng.choice([-1, *range(sources[0] * PAGES,
                                            (sources[-1] + 1) * PAGES)])
                     for _ in range(rng.randint(0, 3 * PAGES))]
            cursor = frontier._cursor
            plan, drawn = frontier.run_plan(held, iter(reads))
            planned_cursor = frontier._cursor
            frontier._cursor = cursor
            placed = len(plan) - 1
            assert drawn == reads[:len(drawn)]
            assert len(drawn) in (placed, placed + 1)
            taken = [held * PAGES + flash.write_ptr[held]]
            program(flash, held)
            for read in drawn[:placed]:
                if read >= 0:
                    flash.read_page(read)
                pbn = frontier.take(spare)
                assert pbn is not None
                taken.append(pbn * PAGES + flash.write_ptr[pbn])
                program(flash, pbn)
            assert list(plan) == taken
            assert frontier._cursor == planned_cursor
            if placed < len(reads):  # a stop the next take calls for
                if reads[placed] >= 0:
                    flash.read_page(reads[placed])
                rotation = list(frontier.open_blocks)
                assert frontier.take(spare) is None \
                    or frontier.open_blocks != rotation

    def test_device_refusing_runs_is_one_and_is_never_cached(self):
        flash, _, frontier, _ = make(blocks=32)
        assert relocated(flash, frontier) == [PAGES]
        flash.tracer = Tracer()  # a tracer sizes nothing
        assert relocated(flash, frontier) == [PAGES]
        flash.tracer = None
        flash.fault.arm_after_programs(10 ** 12)
        assert relocated(flash, frontier) == [1] * PAGES
        flash.fault.disarm()
        flash.serialize_timing = True
        assert relocated(flash, frontier) == [1] * PAGES
        flash.serialize_timing = False
        assert relocated(flash, frontier) == [PAGES]

    def test_sanitized_device_is_one(self):
        flash = SanitizedNandFlash(
            FlashGeometry(num_blocks=8, pages_per_block=PAGES, page_size=64),
            timing=UNIT_TIMING)
        frontier = Frontier(flash, BlockPool(range(8)), 1)
        assert relocated(flash, frontier) == [1] * PAGES

    def test_a_run_is_clipped_to_the_free_pages_of_the_block(self):
        # relocate() moves 6 live pages into a block with 3 free pages:
        # a run of 3 there, then a run of 3 in the next block.
        flash, pool, frontier, _ = make()
        victim, partial = pool.allocate(), frontier.open()
        program(flash, victim, PAGES)
        extra = pool.allocate()
        program(flash, extra, 2)
        program(flash, partial, 1)
        runs = []
        program_run = flash.program_run

        def spy(ppns, datas, *oob_and_reads):
            runs.append((ppns[0] // PAGES, len(datas)))
            return program_run(ppns, datas, *oob_and_reads)

        flash.program_run = spy
        stats = FtlStats()
        srcs = flash.valid_ppns(victim) + flash.valid_ppns(extra)
        relocate(flash, frontier, srcs, spare_block, SequenceCounter(),
                 stats, lambda pairs: None)
        assert [n for _, n in runs] == [PAGES - 1, 3]
        assert runs[0][0] == partial and runs[1][0] != partial
        assert stats.gc_page_copies == 6
        assert flash.valid_count[victim] == flash.valid_count[extra] == 0


class TestPlacement:
    def test_lowest_uncovered_unit_preferred(self):
        _, _, frontier, _ = make(units=4)
        assert frontier.uncovered_unit() == 0
        opened = [frontier.open() for _ in range(3)]
        assert [pbn % 4 for pbn in opened] == [0, 1, 2]
        assert frontier.uncovered_unit() == 3
        frontier.discard(opened[1])
        assert frontier.uncovered_unit() == 1

    def test_least_busy_uncovered_unit_preferred(self):
        flash, pool, frontier, _ = make(units=4, timing=TIMING)
        frontier.open()                       # unit 0
        flash.erase_block(pool.allocate_on(1, 4))
        program(flash, pool.allocate_on(2, 4))
        # Unit 1 erased (20), unit 2 programmed (7), unit 3 idle.
        assert frontier.uncovered_unit() == 3
        assert frontier.open() % 4 == 3
        assert frontier.uncovered_unit() == 2

    def test_falls_back_to_fifo_when_the_unit_has_no_free_block(self):
        _, _, frontier, _ = make(units=2, pool_blocks=[0, 2, 4])
        assert frontier.open() == 0
        assert frontier.uncovered_unit() == 1
        assert frontier.open() == 2           # no odd block: plain FIFO
        assert frontier.uncovered_unit() == 1  # still uncovered

    def test_all_units_covered_returns_unit_zero(self):
        _, _, frontier, _ = make(units=2)
        frontier.open()
        frontier.open()
        assert frontier.uncovered_unit() == 0

    def test_duplicate_open_rejected(self):
        _, pool, frontier, _ = make(units=2, pool_blocks=[0])
        pbn = frontier.open()
        pool.release(pbn)  # a caller freed a block it never discarded
        with pytest.raises(ValueError):
            frontier.open()


class TestDiscard:
    def test_discard_before_the_cursor_keeps_rotation_fair(self):
        flash, _, frontier, _ = make(units=4, ways=3,
                                     pool_blocks=[0, 1, 2])
        a, b, c = frontier.open(), frontier.open(), frontier.open()
        assert frontier.take(0) == a
        assert frontier.take(0) == b
        frontier.discard(a)
        # c is next: not skipped, and b is not served twice in a row.
        assert frontier.take(0) == c
        assert frontier.take(0) == b

    def test_discard_at_or_after_the_cursor(self):
        flash, _, frontier, _ = make(units=4, ways=3,
                                     pool_blocks=[0, 1, 2])
        a, b, c = frontier.open(), frontier.open(), frontier.open()
        assert frontier.take(0) == a
        frontier.discard(b)
        assert frontier.take(0) == c
        assert frontier.take(0) == a

    def test_discard_of_unknown_block_is_a_no_op(self):
        _, _, frontier, retired = make()
        pbn = frontier.open()
        frontier.discard(pbn + 1)
        assert frontier.open_blocks == [pbn]
        assert retired == []  # discarded blocks are not "full"


class TestReset:
    def test_reopens_newest_ways_with_room_and_retires_full_ones(self):
        flash, _, frontier, retired = make(units=2)
        program(flash, 3, PAGES)
        program(flash, 4, 1)
        program(flash, 6, 2)
        frontier.reset([3, 4, 5, 6])
        assert frontier.open_blocks == [5, 6]
        assert retired == [3]
        flash.begin_host_op()                 # clocks tie: rotation order
        assert frontier.take(0) == 5          # cursor restarted

    def test_empty_reset(self):
        _, _, frontier, _ = make()
        frontier.open()
        frontier.reset([])
        assert frontier.open_blocks == []
        assert frontier.peek() is None


class TestPoolSupport:
    def test_allocate_on_is_allocate_at_one_unit(self):
        pool = BlockPool([7, 3, 5])
        assert pool.allocate_on(0, 1) == 7
        assert pool.allocate() == 3

    def test_refill_replaces_contents_in_place(self):
        flash, pool, frontier, _ = make(pool_blocks=[0, 1])
        pool.refill([9, 8])
        assert pool.snapshot() == [9, 8]
        assert 0 not in pool
        assert frontier.open() == 9           # same pool object
        with pytest.raises(ValueError):
            pool.refill([1, 1])


# ----------------------------------------------------------------------
# Stateful model
# ----------------------------------------------------------------------
class FrontierMachine(RuleBasedStateMachine):
    """Appends, early discards and recycling against a shadow model."""

    UNITS = 1
    BLOCKS = 12

    @initialize()
    def setup(self):
        self.flash, self.pool, self.frontier, _ = make(
            units=self.UNITS, blocks=self.BLOCKS, on_full=self.on_full)
        self.retired = []   # full blocks awaiting recycling
        self.serial = None  # the reference serial rule's active block

    def on_full(self, pbn):
        assert self.flash.write_ptr[pbn] == PAGES, "retired a block with room"
        assert pbn not in self.retired, "block retired twice"
        self.retired.append(pbn)

    def recycle(self, pbn):
        for ppn in self.flash.valid_ppns(pbn):
            self.flash.invalidate_page(ppn)
        self.flash.erase_block(pbn)
        self.pool.release(pbn)

    @precondition(lambda self: len(self.pool) > 0)
    @rule(spare=st.integers(min_value=0, max_value=3))
    def write(self, spare):
        frontier = self.frontier
        flash = self.flash
        serial = self.serial
        if serial is not None and flash.write_ptr[serial] >= PAGES:
            serial = None
        expected = self.pool.peek() if serial is None else serial
        before = list(frontier.open_blocks)
        pbn = frontier.take(spare)
        if pbn is None:
            # take asks for a block only when dry or under the spare rule.
            live = [b for b in before if flash.write_ptr[b] < PAGES]
            assert not live or (
                len(live) < frontier.ways and len(self.pool) > spare)
            pbn = frontier.open()
        assert flash.write_ptr[pbn] < PAGES, "handed out a full block"
        if frontier.ways == 1:
            assert pbn == expected, "diverged from the serial rule"
            if self.serial is not None and self.serial != pbn:
                assert self.serial in self.retired
        self.serial = pbn
        program(flash, pbn)

    @precondition(lambda self: self.frontier.open_blocks)
    @rule(data=st.data())
    def discard_open_block(self, data):
        """Maintenance consumes a still-open block (conversion / GC)."""
        pbn = data.draw(st.sampled_from(self.frontier.open_blocks))
        self.frontier.discard(pbn)
        assert pbn not in self.frontier.open_blocks
        if pbn == self.serial:
            self.serial = None
        self.recycle(pbn)

    @precondition(lambda self: self.retired)
    @rule()
    def recycle_retired(self):
        self.recycle(self.retired.pop(0))

    @invariant()
    def rotation_is_sane(self):
        open_blocks = self.frontier.open_blocks
        assert len(open_blocks) <= self.frontier.ways
        assert len(set(open_blocks)) == len(open_blocks)
        assert not any(pbn in self.pool for pbn in open_blocks)
        assert not set(open_blocks) & set(self.retired)
        # Every block is accounted for: free, open, or retired.
        assert len(self.pool) + len(open_blocks) + len(self.retired) \
            == self.BLOCKS


class FrontierMachine2(FrontierMachine):
    UNITS = 2


class FrontierMachine4(FrontierMachine):
    UNITS = 4


_SETTINGS = settings(max_examples=40, stateful_step_count=60, deadline=None)
TestFrontierMachine1Way = FrontierMachine.TestCase
TestFrontierMachine1Way.settings = _SETTINGS
TestFrontierMachine2Way = FrontierMachine2.TestCase
TestFrontierMachine2Way.settings = _SETTINGS
TestFrontierMachine4Way = FrontierMachine4.TestCase
TestFrontierMachine4Way.settings = _SETTINGS
