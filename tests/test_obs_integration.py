"""Integration tests: the tracer threaded through real scheme runs.

Covers the observability acceptance story: per-scheme event streams are
well-formed (monotonic timestamps, balanced spans), LazyFTL's stream
contains **zero merges** while the log-block schemes show many, the JSONL
file round-trips into the same attribution, and - the zero-overhead
contract - an untraced run never touches the obs subsystem at all.
"""

import io
import json

import pytest

from repro.analysis import (
    attribute_trace,
    attribution_rows,
    read_trace,
)
from repro.obs import (
    SPAN_PAIRS,
    Cause,
    EventType,
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
)
from repro.sim import (
    DeviceSpec,
    Simulator,
    compare_schemes,
    run_scheme,
    standard_setup,
)
from repro.traces import IORequest, OpType, Trace, uniform_random

pytestmark = pytest.mark.obs

SMALL_DEVICE = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                          logical_fraction=0.7)
FOOTPRINT = int(SMALL_DEVICE.logical_pages * 0.9)

ALL_SCHEMES = ("ideal", "BAST", "FAST", "superblock", "DFTL", "LazyFTL")


def heavy_random_writes(requests=1500, seed=11):
    return uniform_random(requests, FOOTPRINT, write_ratio=0.9, seed=seed)


def traced_run(scheme, trace=None, capacity=200000):
    ring = RingBufferSink(capacity=capacity)
    tracer = Tracer(sinks=[ring])
    result = run_scheme(scheme, trace or heavy_random_writes(),
                        device=SMALL_DEVICE, tracer=tracer)
    return result, ring.events, tracer


class TestEventStreamWellFormed:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_timestamps_monotonic_and_spans_balanced(self, scheme):
        _, events, _ = traced_run(scheme)
        assert events, "traced run produced no events"
        ts = [e.ts for e in events]
        assert all(b >= a for a, b in zip(ts, ts[1:])), \
            f"{scheme}: timestamps went backwards"
        for start_type, end_type in SPAN_PAIRS.items():
            depth = 0
            for e in events:
                if e.type is start_type:
                    depth += 1
                elif e.type is end_type:
                    depth -= 1
                    assert depth >= 0, f"{scheme}: {end_type} before start"
            assert depth == 0, f"{scheme}: unbalanced {start_type}"

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_host_events_cover_the_trace(self, scheme):
        trace = heavy_random_writes()
        _, events, _ = traced_run(scheme, trace)
        host = [e for e in events
                if e.type in (EventType.HOST_READ, EventType.HOST_WRITE)]
        assert len(host) == trace.page_ops
        writes = sum(1 for e in host if e.type is EventType.HOST_WRITE)
        assert writes == sum(len(r.pages) for r in trace if r.is_write)

    def test_span_end_carries_duration(self):
        _, events, _ = traced_run("BAST")
        ends = [e for e in events if e.type is EventType.MERGE_END]
        assert ends and all(e.dur_us > 0 for e in ends)

    def test_gc_flash_ops_attributed_to_gc(self):
        _, events, tracer = traced_run("ideal")
        by_cause = tracer.attribution.tally("ideal").by_cause()
        assert by_cause.get("gc", 0.0) > 0.0  # steady-state GC ran
        # ... and the raw events agree: ops inside GC spans carry gc
        depth = 0
        for e in events:
            if e.type is EventType.GC_START:
                depth += 1
            elif e.type is EventType.GC_END:
                depth -= 1
            elif e.type is EventType.PAGE_PROGRAM and depth > 0:
                assert e.cause is Cause.GC


class TestSchemeSignatures:
    """The paper's structural claims, read off the event streams."""

    def test_lazyftl_never_merges_but_converts(self):
        _, events, tracer = traced_run("LazyFTL")
        merge_events = [e for e in events if e.type in
                        (EventType.MERGE_START, EventType.MERGE_END)]
        assert merge_events == []
        summary = tracer.attribution.scheme_summary("LazyFTL")
        assert summary["merges"] == 0
        assert summary["converts"] > 0
        assert summary["events"].get("BatchCommit", 0) > 0
        assert summary["time_by_cause_us"].get("merge", 0.0) == 0.0

    @pytest.mark.parametrize("scheme", ["BAST", "FAST"])
    def test_log_block_schemes_merge(self, scheme):
        _, events, tracer = traced_run(scheme)
        summary = tracer.attribution.scheme_summary(scheme)
        assert summary["merges"] > 0
        assert summary["time_by_cause_us"]["merge"] > 0.0
        kinds = {e.extra.get("kind") for e in events
                 if e.type is EventType.MERGE_START}
        assert kinds  # every merge is tagged with its kind

    @pytest.mark.parametrize("scheme", ["BAST", "FAST"])
    def test_merge_end_repeats_the_address_of_its_start(self, scheme):
        _, events, _ = traced_run(scheme)
        open_merges, kinds = [], set()
        for e in events:
            if e.type is EventType.MERGE_START:
                open_merges.append(e)
            elif e.type is EventType.MERGE_END:
                start = open_merges.pop()
                assert (e.lpn, e.ppn, e.extra.get("kind")) == \
                    (start.lpn, start.ppn, start.extra["kind"]), scheme
                assert (e.lpn, e.ppn) != (None, None), scheme
                kinds.add(start.extra["kind"])
        # both of FAST's merge paths ran (sequential and random log)
        assert kinds >= {"FAST": {"sw", "rw"}}.get(scheme, set())

    def test_mapping_traffic_tagged_for_dftl(self):
        # Both flash-map schemes read translation pages on the host path
        # - DFTL on CMT misses (a CMT far smaller than the footprint
        # forces them), LazyFTL on reads the UMT does not cover - through
        # one read primitive, so both tag them the same way.
        for scheme, options in (("DFTL", {"cmt_entries": 64}),
                                ("LazyFTL", {})):
            ring = RingBufferSink(capacity=200000)
            run_scheme(scheme, heavy_random_writes(), device=SMALL_DEVICE,
                       tracer=Tracer(sinks=[ring]), **options)
            map_reads = [e for e in ring.events
                         if e.type is EventType.MAP_READ]
            assert map_reads, scheme  # translation pages were read
            host_path = [e for e in map_reads if e.cause is Cause.MAPPING]
            # host-path lookups are attributed to mapping, never to host
            assert host_path, scheme
            assert not [e for e in map_reads if e.cause is Cause.HOST], scheme

    def test_housekeeping_share_ranks_schemes(self):
        tracer = Tracer()
        trace = heavy_random_writes()
        compare_schemes(trace, schemes=("BAST", "LazyFTL"),
                        device=SMALL_DEVICE, tracer=tracer)
        def housekeeping_share(scheme):
            summary = tracer.attribution.scheme_summary(scheme)
            by_cause = summary["time_by_cause_us"]
            return 1.0 - by_cause.get("host", 0.0) / summary["total_us"]

        assert housekeeping_share("BAST") > housekeeping_share("LazyFTL")
        lazy = tracer.attribution.scheme_summary("LazyFTL")
        assert lazy["time_by_cause_us"].get("merge", 0.0) == 0.0
        assert sum(lazy["time_by_cause_us"].values()) == lazy["total_us"]


class TestJsonlRoundTrip:
    def test_offline_attribution_matches_online(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(str(path))])
        trace = heavy_random_writes(requests=600)
        compare_schemes(trace, schemes=("FAST", "LazyFTL"),
                        device=SMALL_DEVICE, tracer=tracer)
        tracer.close()
        offline = attribute_trace(read_trace(str(path)))
        assert offline.schemes() == ["FAST", "LazyFTL"]
        for scheme in offline.schemes():
            online = tracer.attribution.scheme_summary(scheme)
            recovered = offline.scheme_summary(scheme)
            assert recovered["events"] == online["events"]
            assert recovered["total_us"] == \
                pytest.approx(online["total_us"], abs=0.01)
        rows = attribution_rows(offline)
        assert [row[0] for row in rows] == ["FAST", "LazyFTL"]

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "HostRead", "ts": 0, "scheme": "x", '
                        '"cause": "host"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            list(read_trace(str(path)))

    def test_read_trace_from_stream(self):
        event = TraceEvent(type=EventType.PAGE_READ, ts=1.0, scheme="x",
                           cause=Cause.HOST, ppn=4, dur_us=25.0)
        stream = io.StringIO(json.dumps(event.to_record()) + "\n\n")
        [restored] = list(read_trace(stream))
        assert restored == event


class TestZeroOverheadContract:
    def test_untraced_run_never_touches_obs(self, monkeypatch):
        """The disabled path is one `is None` check: an untraced compare
        must not invoke ANY tracer entry point."""
        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("obs subsystem touched without a tracer")

        for method in ("__init__", "emit", "flash_op", "host_op",
                       "span_start", "span_end", "push_cause", "pop_cause",
                       "begin_run", "suspend", "resume"):
            monkeypatch.setattr(Tracer, method, explode)
        results = compare_schemes(
            heavy_random_writes(requests=300),
            schemes=("BAST", "DFTL", "LazyFTL", "ideal"),
            device=SMALL_DEVICE,
        )
        assert len(results) == 4
        for result in results.values():
            assert result.attribution is None

    def test_traced_numbers_equal_untraced_numbers(self):
        """Tracing observes; it must never change simulated results."""
        trace = heavy_random_writes(requests=800)
        plain = run_scheme("LazyFTL", trace, device=SMALL_DEVICE)
        traced = run_scheme("LazyFTL", trace, device=SMALL_DEVICE,
                            tracer=Tracer())
        assert traced.mean_response_us == plain.mean_response_us
        assert traced.erases == plain.erases
        assert traced.responses.overall.summary() == \
            plain.responses.overall.summary()
        assert traced.ftl_stats.as_dict() == plain.ftl_stats.as_dict()


class TestWarmUpSuspension:
    def test_failed_warm_up_does_not_mute_the_tracer(self):
        """A warm-up that raises must resume the tracer on the way out:
        the next run on the same simulator is traced as usual."""
        _, ftl, logical_pages = standard_setup(
            "LazyFTL", num_blocks=SMALL_DEVICE.num_blocks,
            pages_per_block=SMALL_DEVICE.pages_per_block,
            page_size=SMALL_DEVICE.page_size,
            logical_fraction=SMALL_DEVICE.logical_fraction,
        )
        ring = RingBufferSink(capacity=10000)
        tracer = Tracer(sinks=[ring])
        simulator = Simulator(ftl, tracer=tracer)
        trace = heavy_random_writes(requests=50)
        past_the_end = Trace(
            [IORequest(op=OpType.WRITE, lpn=logical_pages, npages=1)])
        with pytest.raises(ValueError):
            simulator.run(trace, warmup=past_the_end)
        assert tracer.enabled
        result = simulator.run(trace)
        assert ring.events
        assert result.attribution is not None
