"""Unit tests for the trace/request model."""

import pytest

from repro.traces import IORequest, OpType, Trace, merge_traces


class TestIORequest:
    def test_pages_range(self):
        r = IORequest(OpType.WRITE, lpn=10, npages=3)
        assert list(r.pages) == [10, 11, 12]

    def test_is_write(self):
        assert IORequest(OpType.WRITE, 0).is_write
        assert not IORequest(OpType.READ, 0).is_write

    @pytest.mark.parametrize("kwargs", [
        {"lpn": -1},
        {"lpn": 0, "npages": 0},
        {"lpn": 0, "arrival_us": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IORequest(OpType.READ, **kwargs)

    def test_frozen(self):
        r = IORequest(OpType.READ, 0)
        with pytest.raises(AttributeError):
            r.lpn = 5


class TestTrace:
    def make(self):
        return Trace([
            IORequest(OpType.WRITE, 0, 2),
            IORequest(OpType.READ, 1, 1),
            IORequest(OpType.WRITE, 5, 1),
        ], name="t")

    def test_len_iter_getitem(self):
        t = self.make()
        assert len(t) == 3
        assert [r.lpn for r in t] == [0, 1, 5]
        assert t[2].lpn == 5

    def test_page_ops(self):
        t = self.make()
        assert t.page_ops == 4
        assert t.write_page_ops == 3
        assert t.read_page_ops == 1

    def test_write_ratio(self):
        t = self.make()
        assert t.write_ratio == pytest.approx(0.75)

    def test_empty_trace_ratios(self):
        t = Trace([])
        assert t.write_ratio == 0.0
        assert t.max_lpn == -1

    def test_footprint_counts_distinct_pages(self):
        t = self.make()
        assert t.footprint() == 3  # pages 0,1,5

    def test_max_lpn(self):
        t = self.make()
        assert t.max_lpn == 5

    def test_slice(self):
        t = self.make()
        s = t.slice(1, 3)
        assert len(s) == 2
        assert s[0].op is OpType.READ

class TestMergeTraces:
    def test_merge_open_loop_sorts_by_arrival(self):
        a = Trace([IORequest(OpType.READ, 0, 1, arrival_us=5.0)])
        b = Trace([IORequest(OpType.READ, 1, 1, arrival_us=1.0)])
        m = merge_traces([a, b])
        assert [r.lpn for r in m] == [1, 0]

    def test_merge_closed_loop_concatenates(self):
        a = Trace([IORequest(OpType.READ, 0)])
        b = Trace([IORequest(OpType.READ, 1)])
        m = merge_traces([a, b])
        assert [r.lpn for r in m] == [0, 1]
