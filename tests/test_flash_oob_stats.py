"""Unit tests for OOB metadata, sequence counters and wear summaries."""

import gc
import random
import tracemalloc
from array import array

import pytest

from repro.core import LazyConfig, LazyFTL
from repro.core.recovery import recover

from repro.flash import (
    FlashGeometry,
    NandFlash,
    OOBData,
    PageKind,
    SequenceCounter,
    wear_summary,
)
from repro.flash.timing import UNIT_TIMING, TimingModel
from repro.ftl import DftlFTL
from repro.perf.maptable import UNMAPPED
from repro.sim.factory import standard_setup
from repro.sim.simulator import Simulator
from repro.traces.synthetic import uniform_random, warmup_fill


class TestOOBData:
    def test_fields(self):
        oob = OOBData(lpn=3, seq=10, kind=PageKind.MAPPING, cold=True)
        assert oob.lpn == 3
        assert oob.seq == 10
        assert oob.kind is PageKind.MAPPING
        assert oob.cold

    def test_defaults(self):
        oob = OOBData(lpn=0, seq=0)
        assert oob.kind is PageKind.DATA
        assert not oob.cold

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OOBData(lpn=-1, seq=0)
        with pytest.raises(ValueError):
            OOBData(lpn=0, seq=-1)

    def test_frozen(self):
        oob = OOBData(lpn=0, seq=0)
        with pytest.raises(AttributeError):
            oob.lpn = 5


class TestSequenceCounter:
    def test_monotonic(self):
        c = SequenceCounter()
        assert [c.next() for _ in range(3)] == [0, 1, 2]

    def test_current_peeks_without_consuming(self):
        c = SequenceCounter(start=5)
        assert c.current == 5
        assert c.next() == 5

    def test_fast_forward(self):
        c = SequenceCounter()
        c.next()
        c.fast_forward(100)
        assert c.next() == 101

    def test_fast_forward_never_rewinds(self):
        c = SequenceCounter(start=50)
        c.fast_forward(10)
        assert c.next() == 50

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SequenceCounter(start=-1)

    def test_take_hands_out_consecutive_numbers(self):
        c = SequenceCounter(start=7)
        assert c.take(3) == 7          # 7, 8, 9
        assert c.next() == 10
        assert c.take(0) == 11 and c.current == 11
        assert c.take(1) == 11 and c.next() == 12

    def test_run_oobs_are_the_scalar_oobs(self):
        """A bulk ``program_run`` leaves, in the OOB columns, the OOBs of
        its scalar programs: consecutive sequence numbers from the first
        one taken, one kind and one cold flag."""
        flash = NandFlash(FlashGeometry(num_blocks=2, pages_per_block=8))
        c, scalar = SequenceCounter(start=4), SequenceCounter(start=4)
        lpns = [9, 3, 3, 0]
        flash.program_run(0, [None] * 4, lpns, c.take(len(lpns)),
                          PageKind.MAPPING, True)
        oobs = [flash.oob(ppn) for ppn in range(4)]
        assert oobs == [OOBData(lpn, scalar.next(), PageKind.MAPPING, True)
                        for lpn in lpns]
        assert all(type(oob) is OOBData for oob in oobs)
        assert all(oob.kind is PageKind.MAPPING for oob in oobs)
        assert c.current == scalar.current
        assert flash.program_run(4, [], [], c.take(0), PageKind.DATA,
                                 False) == 0.0
        assert flash.oob(4) is None


class TestTimingModel:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(page_read_us=-1)

    @pytest.mark.parametrize("field", ["page_read_us", "page_program_us",
                                       "block_erase_us"])
    def test_fractional_latency_rejected(self, field):
        """Latencies are whole microseconds: the run ops sum them in any
        association and must get the scalar sum exactly."""
        with pytest.raises(ValueError, match=field):
            TimingModel(**{field: 0.1})
        assert getattr(TimingModel(**{field: 7}), field) == 7


class TestWearSummary:
    def test_empty(self):
        s = wear_summary([])
        assert s["total"] == 0
        assert s["cv"] == 0.0

    def test_all_zero(self):
        s = wear_summary([0, 0, 0])
        assert s["mean"] == 0.0
        assert s["cv"] == 0.0

    def test_uniform_wear_has_zero_cv(self):
        s = wear_summary([5, 5, 5, 5])
        assert s["cv"] == 0.0
        assert s["min"] == s["max"] == 5
        assert s["total"] == 20

    def test_skewed_wear_has_positive_cv(self):
        s = wear_summary([0, 0, 0, 100])
        assert s["cv"] > 1.0
        assert s["max"] == 100


def _lazy(flash, logical):
    return LazyFTL(flash, logical, LazyConfig(
        uba_blocks=4, cba_blocks=2, gc_free_threshold=3))


def _dftl(flash, logical):
    return DftlFTL(flash, logical, cmt_entries=48, gc_free_threshold=3)


def _columns(flash):
    return (bytes(flash.oob_lpn), bytes(flash.oob_seq),
            bytes(flash.oob_kind), bytes(flash.oob_cold))


def _translation_pages(ftl):
    """tvpn -> the payload of its live translation page."""
    maps = ftl._maps
    return {tvpn: ftl.flash.page_data[tppn] for tvpn, tppn in maps.gtd.items()}


class TestOOBColumns:
    """The device's OOB is four flat columns; :meth:`NandFlash.oob` reads
    them back as the OOBData a program stored."""

    GEOMETRY = FlashGeometry(num_blocks=48, pages_per_block=16, page_size=64)
    LOGICAL = 400  # 16 map entries per translation page -> 25 tvpns

    def overwrite(self, ftl, seed=3):
        rng = random.Random(seed)
        for lpn in range(self.LOGICAL):
            ftl.write(lpn)
        for i in range(2000):
            ftl.write(rng.randrange(self.LOGICAL // 4) if i % 5
                      else rng.randrange(self.LOGICAL))

    @pytest.mark.parametrize("scheme", [_lazy, _dftl], ids=["LazyFTL", "DFTL"])
    def test_runs_and_refused_runs_store_the_same_columns(self, scheme):
        """GC relocation and GMT commits by run leave the columns and the
        translation-page arrays a device refusing runs leaves."""
        twins = []
        for refuse in (False, True):
            flash = NandFlash(self.GEOMETRY, timing=UNIT_TIMING)
            flash.serialize_timing = refuse
            ftl = scheme(flash, self.LOGICAL)
            assert flash.takes_runs() is not refuse
            self.overwrite(ftl)
            twins.append(ftl)
        by_run, by_page = twins
        assert by_run.stats.gc_page_copies > 0
        assert by_run.stats.map_writes > 0
        assert _columns(by_run.flash) == _columns(by_page.flash)
        pages = _translation_pages(by_run)
        assert pages == _translation_pages(by_page)
        entries = self.GEOMETRY.map_entries_per_page
        for content in pages.values():
            assert isinstance(content, array) and content.typecode == "q"
            assert len(content) == entries

    def test_erase_clears_every_column(self):
        flash = NandFlash(self.GEOMETRY)
        flash.program_run(0, list("abcd"), [5, 6, 7, 8], 40, PageKind.MAPPING,
                          True)
        for ppn in range(4):
            flash.invalidate_page(ppn)
        flash.erase_block(0)
        ppb = self.GEOMETRY.pages_per_block
        assert all(flash.oob(ppn) is None for ppn in range(ppb))
        assert _columns(flash) == _columns(NandFlash(self.GEOMETRY))

    def test_reprogram_after_erase_reports_the_new_oob(self):
        flash = NandFlash(self.GEOMETRY)
        flash.program_page(0, "old", OOBData(9, 90, PageKind.MAPPING, True))
        flash.program_page(1, "old", OOBData(10, 91, PageKind.CHECKPOINT))
        flash.invalidate_run([0, 1])
        flash.erase_block(0)
        flash.program_page(0, "new", OOBData(3, 200))
        flash.program_page(1, "bare")  # programmed without an OOB
        assert flash.oob(0) == OOBData(3, 200, PageKind.DATA, False)
        assert flash.oob(1) is None and flash.probe_page(1)[0] is None
        assert flash.probe_page(0)[0] == OOBData(3, 200)

    def test_recovery_rebuilds_the_umt_over_unmapped_gmt_entries(self):
        """GMT pages of a half-written logical space hold UNMAPPED; the
        recovery scan's GMT comparison reads them as unmapped."""
        flash = NandFlash(self.GEOMETRY, timing=UNIT_TIMING)
        ftl = _lazy(flash, self.LOGICAL)
        rng = random.Random(8)
        for lpn in range(0, self.LOGICAL, 3):  # 2 of 3 lpns never written
            ftl.write(lpn, lpn)
        ftl.flush()
        for i in range(120):
            ftl.write(rng.randrange(0, self.LOGICAL, 2), i)
        assert any(UNMAPPED in content
                   for content in _translation_pages(ftl).values())
        live = dict(ftl.umt.items())
        assert live
        flash.power_off()
        recovered, _ = recover(flash, self.LOGICAL, ftl.config)
        assert dict(recovered.umt.items()) == live
        for lpn in range(1, self.LOGICAL, 6):  # never written, not in UMT
            assert recovered.read(lpn).data is None


class TestLiveBytesPerPage:
    """Device and FTL state stay at <= 100 B per physical page: four
    flat OOB columns and machine-word translation pages, not an object
    per page (it was 213 B per page with an OOBData tuple each)."""

    BUDGET = 100

    @pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL"])
    def test_steady_state_budget(self, scheme):
        blocks, ppb = 256, 64
        logical = int(0.8 * (blocks - 2) * ppb)
        fill = warmup_fill(logical)
        overwrite = uniform_random(logical // 2, logical, write_ratio=1.0,
                                   seed=2)
        gc.collect()
        tracemalloc.start()
        try:
            _, ftl, _ = standard_setup(scheme, num_blocks=blocks,
                                       pages_per_block=ppb, page_size=512,
                                       logical_fraction=0.8)
            simulator = Simulator(ftl)
            simulator.warm_up(fill)
            simulator.warm_up(overwrite)
            del simulator
            gc.collect()
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ftl.stats.gc_page_copies > 0  # GC steady state reached
        assert live / (blocks * ppb) <= self.BUDGET
