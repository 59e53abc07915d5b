"""Unit + integration tests for run reports: snapshot build/validate/
round-trip, the terminal renderer, sparklines, and collect_report end to
end (including the >= 99 % attribution acceptance property)."""

import json

import pytest

from dataclasses import replace

from repro.ftl import FtlStats
from repro.obs import Cause, EventType, OpLatencyRecorder, Tracer
from repro.obs.report import (
    SNAPSHOT_SCHEMA,
    build_snapshot,
    collect_report,
    load_snapshot,
    render_report,
    save_snapshot,
    sparkline,
    validate_snapshot,
)
from repro.obs.series import SeriesCollector
from repro.sim import DeviceSpec, run_scheme
from repro.traces.synthetic import uniform_random

pytestmark = pytest.mark.obs

DEVICE = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                    logical_fraction=0.7)


@pytest.fixture(scope="module")
def lazy_snapshot():
    trace = uniform_random(
        1500, int(DEVICE.logical_pages * 0.8), write_ratio=0.7, seed=11,
    )
    return collect_report(
        "LazyFTL", trace, device=DEVICE, ring_capacity=128,
    )


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_baseline(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_min_and_max_levels(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40


class TestSnapshot:
    def test_validates_clean(self, lazy_snapshot):
        snapshot, _, _ = lazy_snapshot
        assert validate_snapshot(snapshot) == []
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["scheme"] == "LazyFTL"

    def test_json_serialisable_and_round_trips(self, lazy_snapshot,
                                               tmp_path):
        snapshot, _, _ = lazy_snapshot
        path = str(tmp_path / "snap.json")
        save_snapshot(snapshot, path)
        restored = load_snapshot(path)
        assert restored == json.loads(json.dumps(snapshot))

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as stream:
            json.dump({"schema": "something-else"}, stream)
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_validate_flags_structural_problems(self, lazy_snapshot):
        snapshot, _, _ = lazy_snapshot
        broken = json.loads(json.dumps(snapshot))
        broken["latency"]["classes"]["write"]["p99_us"] = -5
        broken["latency"]["classes"]["write"]["attributed_fraction"] = 1.5
        del broken["latency"]["classes"]["overall"]["count"]
        errors = validate_snapshot(broken)
        assert any("not monotonic" in e for e in errors)
        assert any("attributed_fraction" in e for e in errors)
        assert any("missing 'count'" in e for e in errors)
        assert validate_snapshot("nope") == ["snapshot is not a JSON object"]

    def test_validate_flags_series_problems(self, lazy_snapshot):
        snapshot, _, _ = lazy_snapshot
        broken = json.loads(json.dumps(snapshot))
        if broken["series"]["windows"]:
            broken["series"]["windows"][0]["window"] = 10 ** 9
            assert any("not increasing" in e
                       for e in validate_snapshot(broken))

    def test_events_dropped_recorded(self, lazy_snapshot):
        snapshot, _, ring = lazy_snapshot
        assert snapshot["events_dropped"] == ring.dropped > 0
        assert snapshot["events_emitted"] == ring.events_seen
        assert snapshot["events_emitted"] > 0


class TestAcceptance:
    def test_decomposition_attributes_99_percent(self, lazy_snapshot):
        """The headline acceptance property: every op class attributes
        >= 99 % of its service latency to named cause buckets, with the
        remainder explicitly labeled unattributed."""
        snapshot, _, _ = lazy_snapshot
        classes = snapshot["latency"]["classes"]
        assert {"read", "write", "overall"} <= set(classes)
        for op_class, entry in classes.items():
            assert entry["attributed_fraction"] >= 0.99, op_class
            for q in ("p50_us", "p99_us", "p999_us"):
                assert entry[q] >= 0
        assert snapshot["latency"]["invariant"]["violations"] == 0

    def test_decomposition_matches_run_latency_total(self, lazy_snapshot):
        """Recorder total == the simulator's own response accounting."""
        snapshot, result, _ = lazy_snapshot
        overall = snapshot["latency"]["classes"]["overall"]
        assert overall["count"] == result.responses.overall.count
        assert overall["total_us"] == pytest.approx(
            result.responses.overall.total
        )
        assert overall["max_us"] == pytest.approx(
            result.responses.overall.max
        )


    def test_one_quantile_definition_per_snapshot(self):
        """Below 1000 samples the response summary and the latency
        decomposition state the same p999 (the p99 there), as every
        other figure they share."""
        trace = uniform_random(400, DEVICE.logical_pages, seed=0,
                               name="random")
        snapshot, _, _ = collect_report("LazyFTL", trace, device=DEVICE)
        response = snapshot["response"]["overall"]
        overall = snapshot["latency"]["classes"]["overall"]
        assert response["count"] == 400
        for key in response:
            assert overall[key] == response[key], key


class TestRender:
    def test_dashboard_sections_present(self, lazy_snapshot):
        snapshot, _, _ = lazy_snapshot
        text = render_report(snapshot)
        assert "service latency by op class" in text
        assert "where the time went" in text
        assert "tail breakdown" in text
        assert "decomposition invariant: OK" in text
        assert "time-series" in text
        assert "ops/s" in text

    def test_renders_from_reloaded_snapshot(self, lazy_snapshot, tmp_path):
        snapshot, _, _ = lazy_snapshot
        path = str(tmp_path / "snap.json")
        save_snapshot(snapshot, path)
        assert render_report(load_snapshot(path)) == \
            render_report(snapshot)

    def test_render_minimal_snapshot(self):
        """A hand-built snapshot with no series/ring still renders."""
        recorder = OpLatencyRecorder()
        tracer = Tracer(latency=recorder)
        tracer.begin_run("ideal")
        tracer.host_op(True, 0, 0.0)

        class _Result:
            scheme = "ideal"
            trace_name = "t"
            requests = 1
            page_ops = 1
            device_busy_us = 0.0
            attribution = None
            ftl_stats = FtlStats()

            class responses:
                @staticmethod
                def summary():
                    return {}

        snapshot = build_snapshot(_Result(), recorder)
        assert validate_snapshot(snapshot) == []
        text = render_report(snapshot)
        assert "ideal on t" in text


class TestCollectReport:
    def test_sanitized_collection(self):
        trace = uniform_random(
            400, int(DEVICE.logical_pages * 0.6), write_ratio=0.8, seed=3,
        )
        snapshot, _, _ = collect_report(
            "DFTL", trace, device=DEVICE, sanitize=True,
        )
        assert validate_snapshot(snapshot) == []
        assert snapshot["scheme"] == "DFTL"
        assert snapshot["latency"]["invariant"]["violations"] == 0

    def test_series_windows_cover_the_run(self, lazy_snapshot):
        snapshot, result, _ = lazy_snapshot
        series = snapshot["series"]
        assert series["windows"], "a measured run must produce windows"
        total_host_ops = sum(w["host_ops"] for w in series["windows"])
        assert total_host_ops == result.requests


#: Series window fields and the event type each counts.
_WINDOW_COUNTS = (
    ("host_reads", EventType.HOST_READ),
    ("host_writes", EventType.HOST_WRITE),
    ("host_trims", EventType.HOST_TRIM),
    ("page_reads", EventType.PAGE_READ),
    ("page_programs", EventType.PAGE_PROGRAM),
    ("block_erases", EventType.BLOCK_ERASE),
    ("map_reads", EventType.MAP_READ),
    ("map_writes", EventType.MAP_WRITE),
    ("gc_runs", EventType.GC_START),
    ("converts", EventType.CONVERT),
)


class TestOneFold:
    """The run totals, the series windows and the per-op parts are cuts
    of one fold: summed over their cuts, the three agree on flash time,
    event counts and channel wait."""

    @pytest.mark.parametrize("channels", [1, 4], ids=["1x1x1", "4x1x1"])
    @pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL", "FAST"])
    def test_run_windows_and_ops_agree(self, scheme, channels):
        device = replace(DEVICE, channels=channels)
        trace = uniform_random(
            1500, int(device.logical_pages * 0.8), write_ratio=0.7, seed=11,
        )
        recorder = OpLatencyRecorder()
        series = SeriesCollector(window_us=20_000.0, capacity=10_000)
        tracer = Tracer(sinks=[series], latency=recorder)
        run_scheme(scheme, trace, device=device, precondition="steady",
                   tracer=tracer)
        run = tracer.attribution.tally(scheme)
        windows = series.windows(scheme)
        assert series.windows_dropped(scheme) == 0 and len(windows) > 1
        latency = recorder.scheme_summary(scheme)
        classes = latency["classes"]

        # flash time per cause: run == sum over windows
        for cause, spent in run.by_cause().items():
            assert sum(
                w["flash_time_us"] * w["stall_fractions"].get(cause, 0.0)
                for w in windows
            ) == pytest.approx(spent), cause
        # ... per bucket: run == per-op parts + fenced-off time
        for bucket, spent in run.by_bucket().items():
            per_op = sum(entry["by_cause_us"].get(bucket, 0.0)
                         for op_class, entry in classes.items()
                         if op_class != "overall")
            outside = latency["outside_us"].get(bucket, 0.0)
            assert per_op + outside == pytest.approx(spent, abs=0.01), \
                bucket

        # event counts per type
        counts = run.counts()
        for key, event_type in _WINDOW_COUNTS:
            assert sum(w[key] for w in windows) == \
                counts.get(event_type, 0), key
        assert sum(w["gc_debt_pages"] for w in windows) == run.count(
            EventType.PAGE_PROGRAM, Cause.GC, Cause.MERGE)
        for op_class, event_type in (("read", EventType.HOST_READ),
                                     ("write", EventType.HOST_WRITE)):
            assert classes[op_class]["count"] == counts[event_type]

        # channel wait: nonzero only on the striped device
        overall = classes["overall"]
        wait = latency["channel_wait"]
        assert (run.wait_us > 0) == (channels > 1)
        assert sum(w["channel_wait_us"] for w in windows) == \
            pytest.approx(run.wait_us, abs=1e-3 * len(windows))
        assert overall["channel_wait_us"] + wait["outside_us"] == \
            pytest.approx(run.wait_us, abs=0.01)
        assert wait["total_us"] == pytest.approx(run.wait_us, abs=0.01)
