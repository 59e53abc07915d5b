"""Unit tests for OOB metadata, sequence counters and wear summaries."""

import pytest

from repro.flash import OOBData, PageKind, SequenceCounter, wear_summary
from repro.flash.oob import run_oobs
from repro.flash.timing import TimingModel


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
        c, scalar = SequenceCounter(start=4), SequenceCounter(start=4)
        lpns = [9, 3, 3, 0]
        bulk = run_oobs(lpns, c.take(len(lpns)), PageKind.MAPPING, True)
        assert bulk == [OOBData(lpn, scalar.next(), PageKind.MAPPING, True)
                        for lpn in lpns]
        assert all(type(oob) is OOBData for oob in bulk)
        assert c.current == scalar.current
        assert run_oobs([], c.take(0), PageKind.DATA, False) == []


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
