"""Unit tests for the per-op latency decomposition layer: cause
bucketing, the OpLatencyRecorder invariant (sum of parts == whole)
including fencing and queueing, and its exact quantiles."""

import math

import pytest

from repro.obs import Cause, EventType, TraceEvent
from repro.obs.latency import OpLatencyRecorder
from repro.obs.tally import BUCKETS, bucket_of

pytestmark = pytest.mark.obs


def _flash(type, cause, dur, scheme="X", ppn=0):
    return TraceEvent(type=type, ts=0.0, scheme=scheme, cause=cause,
                      ppn=ppn, dur_us=dur)


def _host(type, dur, scheme="X"):
    return TraceEvent(type=type, ts=0.0, scheme=scheme, cause=Cause.HOST,
                      lpn=0, dur_us=dur)


class TestBucketOf:
    def test_host_flash_ops_map_to_device_buckets(self):
        assert bucket_of(_flash(EventType.PAGE_READ, Cause.HOST, 1)) \
            == "device_read"
        assert bucket_of(_flash(EventType.PAGE_PROGRAM, Cause.HOST, 1)) \
            == "device_program"
        assert bucket_of(_flash(EventType.BLOCK_ERASE, Cause.HOST, 1)) \
            == "device_erase"

    def test_housekeeping_causes(self):
        assert bucket_of(_flash(EventType.PAGE_PROGRAM, Cause.GC, 1)) == "gc"
        assert bucket_of(
            _flash(EventType.BLOCK_ERASE, Cause.MERGE, 1)) == "merge"
        assert bucket_of(
            _flash(EventType.PAGE_READ, Cause.MAPPING, 1)
        ) == "translation_read"
        assert bucket_of(
            _flash(EventType.PAGE_PROGRAM, Cause.MAPPING, 1)
        ) == "mapping_commit"
        assert bucket_of(
            _flash(EventType.PAGE_PROGRAM, Cause.CONVERT, 1)
        ) == "mapping_commit"
        assert bucket_of(
            _flash(EventType.PAGE_READ, Cause.RECOVERY, 1)) == "recovery"

    def test_every_bucket_is_declared(self):
        for event in (
            _flash(EventType.PAGE_READ, cause, 1.0) for cause in Cause
        ):
            assert bucket_of(event) in BUCKETS


class TestOpLatencyRecorder:
    def test_exact_decomposition(self):
        rec = OpLatencyRecorder()
        rec.emit(_flash(EventType.PAGE_READ, Cause.MAPPING, 25.0))
        rec.emit(_flash(EventType.PAGE_PROGRAM, Cause.HOST, 200.0))
        rec.emit(_host(EventType.HOST_WRITE, 225.0))
        last = rec.last_op
        assert last.op_class == "write"
        assert last.parts == {
            "translation_read": 25.0, "device_program": 200.0,
        }
        assert last.unattributed_us == 0.0
        assert last.parts_total() == 225.0
        verdict = rec.invariants()["X"]
        assert verdict == {
            "checked_ops": 1, "violations": 0, "max_residual_us": 0.0,
        }

    def test_positive_residual_is_unattributed_not_violation(self):
        rec = OpLatencyRecorder()
        rec.emit(_flash(EventType.PAGE_READ, Cause.HOST, 50.0))
        rec.emit(_host(EventType.HOST_READ, 80.0))
        last = rec.last_op
        assert last.unattributed_us == pytest.approx(30.0)
        assert last.parts_total() == pytest.approx(80.0)
        assert rec.invariants()["X"]["violations"] == 0
        summary = rec.scheme_summary("X")
        read = summary["classes"]["read"]
        assert read["unattributed_us"] == pytest.approx(30.0)
        assert read["attributed_fraction"] == pytest.approx(50.0 / 80.0)

    def test_negative_residual_counts_as_violation(self):
        rec = OpLatencyRecorder()
        rec.emit(_flash(EventType.PAGE_PROGRAM, Cause.GC, 500.0))
        rec.emit(_host(EventType.HOST_WRITE, 200.0))
        verdict = rec.invariants()["X"]
        assert verdict["violations"] == 1
        assert verdict["max_residual_us"] == pytest.approx(300.0)

    def test_float_dust_within_tolerance_is_not_violation(self):
        rec = OpLatencyRecorder()
        rec.emit(_flash(EventType.PAGE_READ, Cause.HOST, 25.0))
        rec.emit(_host(EventType.HOST_READ, 25.0 - 1e-7))
        assert rec.invariants()["X"]["violations"] == 0

    def test_fence_keeps_idle_work_out_of_next_op(self):
        rec = OpLatencyRecorder()
        rec.emit(_flash(EventType.PAGE_PROGRAM, Cause.GC, 400.0))
        rec.fence("X")
        rec.emit(_flash(EventType.PAGE_READ, Cause.HOST, 25.0))
        rec.emit(_host(EventType.HOST_READ, 25.0))
        last = rec.last_op
        assert last.parts == {"device_read": 25.0}
        assert rec.invariants()["X"]["violations"] == 0
        summary = rec.scheme_summary("X")
        assert summary["outside_us"] == {"gc": 400.0}

    def test_scheme_switch_fences_pending(self):
        rec = OpLatencyRecorder()
        rec.emit(_flash(EventType.PAGE_PROGRAM, Cause.GC, 100.0,
                           scheme="A"))
        # Scheme B starts before A completed a host op: A's pending time
        # must not leak into B's first op.
        rec.emit(_flash(EventType.PAGE_READ, Cause.HOST, 25.0,
                           scheme="B"))
        rec.emit(_host(EventType.HOST_READ, 25.0, scheme="B"))
        assert rec.last_op.parts == {"device_read": 25.0}
        assert rec.scheme_summary("A")["outside_us"] == {"gc": 100.0}
        assert rec.schemes() == ["A", "B"]

    def test_queueing_is_outside_the_service_invariant(self):
        rec = OpLatencyRecorder()
        rec.note_queue_delay("X", True, 500.0)
        rec.emit(_flash(EventType.PAGE_PROGRAM, Cause.HOST, 200.0))
        rec.emit(_host(EventType.HOST_WRITE, 200.0))
        summary = rec.scheme_summary("X")
        write = summary["classes"]["write"]
        assert write["queueing_us"] == pytest.approx(500.0)
        assert write["attributed_fraction"] == 1.0
        assert rec.invariants()["X"]["violations"] == 0

    def test_trim_class_tracked(self):
        rec = OpLatencyRecorder()
        rec.emit(_host(EventType.HOST_TRIM, 0.0))
        summary = rec.scheme_summary("X")
        assert summary["classes"]["trim"]["count"] == 1
        # Zero-latency ops are fully attributed by definition.
        assert summary["classes"]["trim"]["attributed_fraction"] == 1.0

    def test_slowest_ops_carry_their_decomposition(self):
        rec = OpLatencyRecorder()
        for i in range(20):
            dur = 100.0 + i
            rec.emit(_flash(EventType.PAGE_PROGRAM, Cause.HOST, dur))
            rec.emit(_host(EventType.HOST_WRITE, dur))
        overall = rec.scheme_summary("X")["classes"]["overall"]
        slowest = overall["slowest"]
        assert len(slowest) == 12  # TOP_K
        assert slowest[0]["dur_us"] == 119.0  # worst first
        assert slowest[0]["by_cause_us"] == {"device_program": 119.0}

    def test_unknown_scheme_summary_is_none(self):
        assert OpLatencyRecorder().scheme_summary("nope") is None

    def test_as_dict_covers_all_schemes(self):
        rec = OpLatencyRecorder()
        rec.emit(_host(EventType.HOST_READ, 0.0, scheme="A"))
        rec.emit(_host(EventType.HOST_READ, 0.0, scheme="B"))
        assert sorted(rec.as_dict()) == ["A", "B"]

    def test_quantiles_are_exact_nearest_rank(self):
        """A device whose page program takes exactly 200 us must report a
        200.0 median write, not the midpoint of a histogram bucket."""
        durations = [200.0] * 700 + [225.0 + 37.0 * i for i in range(301)]
        durations = durations[1::2] + durations[::2]  # not in sorted order
        rec = OpLatencyRecorder()
        for dur in durations:
            rec.emit(_host(EventType.HOST_WRITE, dur))
        write = rec.scheme_summary("X")["classes"]["write"]
        ranked = sorted(durations)
        for key, q in (("p50_us", 0.5), ("p99_us", 0.99),
                       ("p999_us", 0.999)):
            assert write[key] == ranked[math.ceil(q * len(ranked)) - 1], key
        assert write["p50_us"] == 200.0
        assert "overflow" not in write
