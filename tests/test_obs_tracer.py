"""Unit tests for the observability subsystem (events, tracer, sinks,
metrics): the pieces in isolation, before the per-scheme integration
tests in test_obs_integration.py."""

import io
import json

import pytest

from repro.obs import (
    Cause,
    EventType,
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
)

pytestmark = pytest.mark.obs


class TestTraceEvent:
    def test_record_round_trip(self):
        event = TraceEvent(
            type=EventType.MERGE_END, ts=123.4567, scheme="BAST",
            cause=Cause.MERGE, lpn=7, ppn=None, dur_us=2500.0,
            extra={"kind": "full"},
        )
        restored = TraceEvent.from_record(event.to_record())
        assert restored.type is EventType.MERGE_END
        assert restored.cause is Cause.MERGE
        assert restored.ts == pytest.approx(123.457)  # 3-decimal wire form
        assert restored.lpn == 7
        assert restored.ppn is None
        assert restored.dur_us == 2500.0
        assert restored.extra == {"kind": "full"}

    def test_record_drops_absent_fields(self):
        event = TraceEvent(type=EventType.HOST_READ, ts=0.0,
                           scheme="ideal", cause=Cause.HOST, lpn=3)
        record = event.to_record()
        assert "ppn" not in record
        assert "dur_us" not in record
        assert set(record) == {"type", "ts", "scheme", "cause", "lpn"}

    def test_flash_op_record_keeps_zero_duration(self):
        """A fully overlapped op on a striped device adds 0.0 to the
        makespan; its record must still say so."""
        event = TraceEvent(type=EventType.PAGE_PROGRAM, ts=5.0,
                           scheme="ideal", cause=Cause.HOST, ppn=9)
        assert event.to_record()["dur_us"] == 0.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent.from_record(
                {"type": "Nope", "ts": 0, "scheme": "x", "cause": "host"}
            )


class TestTracerCauseStack:
    def test_default_cause_is_host(self):
        assert Tracer().current_cause is Cause.HOST

    def test_push_pop(self):
        tracer = Tracer()
        tracer.push_cause(Cause.GC)
        tracer.push_cause(Cause.MAPPING)  # innermost wins
        assert tracer.current_cause is Cause.MAPPING
        assert tracer.pop_cause() is Cause.MAPPING
        assert tracer.current_cause is Cause.GC

    def test_underflow_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().pop_cause()

    def test_cause_scope_restores_on_error(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.cause(Cause.CONVERT):
                raise KeyError("boom")
        assert tracer.current_cause is Cause.HOST


class TestTracerEmission:
    def test_flash_op_advances_clock_and_stamps_cause(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.begin_run("X")
        tracer.set_clock(100.0)
        with tracer.cause(Cause.GC):
            tracer.flash_op(EventType.PAGE_READ, ppn=5, dur_us=25.0)
        tracer.flash_op(EventType.PAGE_PROGRAM, ppn=6, dur_us=200.0, lpn=9)
        first, second = ring.events
        assert (first.ts, first.cause) == (100.0, Cause.GC)
        assert (second.ts, second.cause) == (125.0, Cause.HOST)
        assert tracer.clock == 325.0
        assert tracer.attribution.scheme_summary("X")["total_us"] == 225.0

    def test_suspend_mutes_events_but_keeps_clock(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.begin_run("X")
        tracer.suspend()
        tracer.flash_op(EventType.PAGE_READ, ppn=1, dur_us=25.0)
        tracer.resume()
        assert len(ring) == 0
        assert tracer.clock == 25.0  # warm-up still moves simulated time

    def test_span_duration_from_clock(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        tracer.begin_run("X")
        tracer.span_start(EventType.GC_START, Cause.GC, ppn=3)
        tracer.flash_op(EventType.PAGE_READ, ppn=40, dur_us=25.0)
        tracer.flash_op(EventType.BLOCK_ERASE, ppn=3, dur_us=1500.0)
        tracer.span_end(EventType.GC_END, ppn=3)
        end = ring.events[-1]
        assert end.type is EventType.GC_END
        assert end.dur_us == 1525.0
        # the inner flash ops were attributed to gc
        assert tracer.attribution.tally("X").by_cause() == {"gc": 1525.0}

    def test_begin_run_resets_state(self):
        tracer = Tracer()
        tracer.push_cause(Cause.MERGE)
        tracer.set_clock(999.0)
        tracer.begin_run("Y")
        assert tracer.clock == 0.0
        assert tracer.current_cause is Cause.HOST
        assert tracer.scheme == "Y"

    def test_metrics_counters_and_histograms(self):
        tracer = Tracer()
        tracer.begin_run("X")
        tracer.host_op(True, lpn=1, dur_us=200.0)
        tracer.host_op(False, lpn=2, dur_us=25.0)
        tracer.flash_op(EventType.PAGE_READ, ppn=0, dur_us=25.0)
        tracer.begin_run("Y")
        tracer.host_op(True, lpn=1, dur_us=200.0)
        totals = tracer.attribution
        assert {s: totals.tally(s).counts() for s in totals.schemes()} == {
            "X": {"HostWrite": 1, "HostRead": 1, "PageRead": 1},
            "Y": {"HostWrite": 1},
        }
        assert totals.tally("X").by_cause() == {"host": 25.0}
        assert totals.tally("Y").by_cause() == {}


class TestJsonlSink:
    def test_round_trip_through_stream(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        tracer = Tracer(sinks=[sink])
        tracer.begin_run("LazyFTL")
        tracer.flash_op(EventType.PAGE_PROGRAM, ppn=8, dur_us=200.0, lpn=3)
        tracer.emit(EventType.CONVERT, ppn=2, dur_us=450.0, entries=12)
        tracer.close()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert sink.events_written == 2
        events = [TraceEvent.from_record(json.loads(l)) for l in lines]
        assert events[0].type is EventType.PAGE_PROGRAM
        assert events[1].extra == {"entries": 12}
        assert events[1].scheme == "LazyFTL"

    def test_file_target_owned_and_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(sinks=[sink])
        tracer.begin_run("X")
        tracer.host_op(True, lpn=0, dur_us=200.0)
        tracer.close()
        [record] = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["type"] == "HostWrite"
        assert sink._stream.closed


class TestRingBufferSink:
    def test_bounded(self):
        ring = RingBufferSink(capacity=3)
        tracer = Tracer(sinks=[ring])
        tracer.begin_run("X")
        for lpn in range(10):
            tracer.host_op(False, lpn=lpn, dur_us=25.0)
        assert len(ring) == 3
        assert ring.events_seen == 10
        assert [e.lpn for e in ring.events] == [7, 8, 9]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)
