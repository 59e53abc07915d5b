"""Unit tests for the windowed time-series collector: window bucketing,
gap filling, counted ring eviction, metric derivation, and the JSONL
export."""

import io
import json

import pytest

from repro.obs import Cause, EventType, TraceEvent
from repro.obs.series import DEFAULT_WINDOW_US, SeriesCollector

pytestmark = pytest.mark.obs


def _event(type, ts, dur=0.0, cause=Cause.HOST, scheme="X", ppn=None):
    return TraceEvent(type=type, ts=ts, scheme=scheme, cause=cause,
                      lpn=0, ppn=ppn, dur_us=dur)


def _fill(collector, scheme="X"):
    """One write (program 200us) at t=0 and one at t=1.5 windows."""
    w = collector.window_us
    collector.emit(_event(EventType.PAGE_PROGRAM, 10.0, 200.0,
                          scheme=scheme))
    collector.emit(_event(EventType.HOST_WRITE, 210.0, 200.0,
                          scheme=scheme))
    collector.emit(_event(EventType.PAGE_PROGRAM, 1.5 * w, 200.0,
                          scheme=scheme))
    collector.emit(_event(EventType.HOST_WRITE, 1.5 * w + 200, 200.0,
                          scheme=scheme))


class TestWindowing:
    def test_events_land_in_their_window(self):
        collector = SeriesCollector(window_us=1000.0)
        _fill(collector)
        windows = collector.windows("X")
        assert [w["window"] for w in windows] == [0, 1]
        assert windows[0]["host_writes"] == 1
        assert windows[1]["host_writes"] == 1
        assert windows[0]["t_us"] == 0.0
        assert windows[1]["t_us"] == 1000.0

    def test_gap_windows_are_materialized_empty(self):
        collector = SeriesCollector(window_us=100.0)
        collector.emit(_event(EventType.HOST_WRITE, 50.0))
        collector.emit(_event(EventType.HOST_WRITE, 350.0))
        windows = collector.windows("X")
        assert [w["window"] for w in windows] == [0, 1, 2, 3]
        assert windows[1]["host_ops"] == 0
        assert windows[2]["host_ops"] == 0

    def test_ring_eviction_is_counted(self):
        collector = SeriesCollector(window_us=100.0, capacity=2)
        for i in range(6):
            collector.emit(_event(EventType.HOST_WRITE, i * 100.0 + 1))
        # 5 closed windows into a 2-slot ring: 3 evicted, all counted.
        assert collector.windows_dropped("X") == 3
        retained = collector.windows("X")
        assert [w["window"] for w in retained] == [3, 4, 5]

    def test_unknown_scheme_is_empty(self):
        collector = SeriesCollector()
        assert collector.windows("nope") == []
        assert collector.windows_dropped("nope") == 0
        assert collector.series("nope", "waf") == []


class TestMetrics:
    def test_ops_per_sec(self):
        collector = SeriesCollector(window_us=1_000_000.0)  # 1 s windows
        for i in range(50):
            collector.emit(_event(EventType.HOST_WRITE, float(i)))
        (window,) = collector.windows("X")
        assert window["ops_per_sec"] == pytest.approx(50.0)

    def test_waf_counts_all_programs_over_host_writes(self):
        collector = SeriesCollector(window_us=1000.0)
        collector.emit(_event(EventType.PAGE_PROGRAM, 0.0, 200.0))
        collector.emit(_event(EventType.PAGE_PROGRAM, 0.0, 200.0,
                              cause=Cause.GC))
        collector.emit(_event(EventType.HOST_WRITE, 200.0, 200.0))
        (window,) = collector.windows("X")
        assert window["waf"] == pytest.approx(2.0)
        assert window["gc_debt_pages"] == 1

    def test_waf_none_without_host_writes(self):
        collector = SeriesCollector(window_us=1000.0)
        collector.emit(_event(EventType.HOST_READ, 0.0))
        (window,) = collector.windows("X")
        assert window["waf"] is None

    def test_map_hit_rate(self):
        collector = SeriesCollector(window_us=1000.0)
        for _ in range(4):
            collector.emit(_event(EventType.HOST_READ, 0.0))
        collector.emit(_event(EventType.MAP_READ, 0.0,
                              cause=Cause.MAPPING))
        (window,) = collector.windows("X")
        assert window["map_hit_rate"] == pytest.approx(0.75)

    def test_stall_fractions_sum_to_one(self):
        collector = SeriesCollector(window_us=1000.0)
        collector.emit(_event(EventType.PAGE_PROGRAM, 0.0, 300.0))
        collector.emit(_event(EventType.PAGE_PROGRAM, 0.0, 100.0,
                              cause=Cause.GC))
        (window,) = collector.windows("X")
        fractions = window["stall_fractions"]
        assert fractions["host"] == pytest.approx(0.75)
        assert fractions["gc"] == pytest.approx(0.25)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_erase_variance_exact_with_num_blocks(self):
        collector = SeriesCollector(window_us=1000.0, num_blocks=4)
        # Block 0 erased twice, others never: counts (2,0,0,0).
        collector.emit(_event(EventType.BLOCK_ERASE, 0.0, 2000.0,
                              cause=Cause.GC, ppn=0))
        collector.emit(_event(EventType.BLOCK_ERASE, 10.0, 2000.0,
                              cause=Cause.GC, ppn=0))
        (window,) = collector.windows("X")
        # mean 0.5; variance = (4 + 0*3)/4 - 0.25 = 0.75
        assert window["erase_variance"] == pytest.approx(0.75)

    def test_schemes_are_independent(self):
        collector = SeriesCollector(window_us=1000.0)
        _fill(collector, scheme="A")
        _fill(collector, scheme="B")
        assert collector.schemes() == ["A", "B"]
        assert len(collector.windows("A")) == 2


class TestExport:
    def test_jsonl_round_trip(self):
        collector = SeriesCollector(window_us=1000.0)
        _fill(collector)
        stream = io.StringIO()
        written = collector.to_jsonl(stream, scheme="X")
        lines = [json.loads(l) for l in
                 stream.getvalue().strip().splitlines()]
        assert written == len(lines) == 2
        assert all(l["scheme"] == "X" for l in lines)
        assert lines[0]["schema"] == 1
        assert lines[0]["host_writes"] == 1

    def test_snapshot_shape(self):
        collector = SeriesCollector(window_us=1000.0)
        _fill(collector)
        snapshot = collector.snapshot("X")
        assert snapshot["window_us"] == 1000.0
        assert snapshot["windows_dropped"] == 0
        assert len(snapshot["windows"]) == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SeriesCollector(window_us=0.0)
        with pytest.raises(ValueError):
            SeriesCollector(capacity=0)
        assert SeriesCollector().window_us == DEFAULT_WINDOW_US
