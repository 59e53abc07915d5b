"""Tests for tools/check_trace_schema.py (the CI trace validator)."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.obs import JsonlSink, Tracer
from repro.sim import DeviceSpec, run_scheme
from repro.traces import uniform_random

pytestmark = pytest.mark.obs

TOOL = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "tools" / "check_trace_schema.py"
)


def run_tool(*args):
    return subprocess.run(
        [sys.executable, TOOL, *args],
        capture_output=True, text=True, timeout=120,
    )


def write_real_trace(path):
    device = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                        logical_fraction=0.7)
    tracer = Tracer(sinks=[JsonlSink(str(path))])
    run_scheme(
        "LazyFTL",
        uniform_random(400, int(device.logical_pages * 0.9),
                       write_ratio=0.9, seed=3),
        device=device, tracer=tracer,
    )
    tracer.close()


class TestCheckTraceSchema:
    def test_real_trace_is_clean(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        write_real_trace(path)
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_violations_fail(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        records = [
            {"type": "Bogus", "ts": 0, "scheme": "x", "cause": "host"},
            {"type": "PageRead", "ts": 5, "scheme": "x", "cause": "host",
             "ppn": 1},                            # flash op without dur
            {"type": "HostRead", "ts": 1, "scheme": "x", "cause": "host"},
            {"type": "GCEnd", "ts": 2, "scheme": "x", "cause": "gc"},
            {"type": "MergeStart", "ts": 3, "scheme": "x",
             "cause": "merge"},                    # never closed
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\nnot json\n"
        )
        proc = run_tool(str(path))
        assert proc.returncode == 1
        err = proc.stderr
        assert "unparseable record" in err
        assert "without dur_us" in err
        assert "timestamp went backwards" in err
        assert "GCEnd without a matching start" in err
        assert "unclosed MergeStart" in err

    def test_zero_duration_flash_op_passes(self, tmp_path):
        path = tmp_path / "overlapped.jsonl"
        path.write_text(json.dumps(
            {"type": "PageProgram", "ts": 5, "scheme": "x",
             "cause": "host", "ppn": 1, "dur_us": 0.0}) + "\n")
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr

    def test_striped_trace_is_clean(self, tmp_path):
        """4x1x1: overlapped ops have a zero marginal makespan."""
        path = tmp_path / "striped.jsonl"
        device = DeviceSpec(num_blocks=96, pages_per_block=16,
                            page_size=512, logical_fraction=0.7,
                            channels=4)
        tracer = Tracer(sinks=[JsonlSink(str(path))])
        run_scheme(
            "LazyFTL",
            uniform_random(400, int(device.logical_pages * 0.9),
                           write_ratio=0.9, seed=3),
            device=device, tracer=tracer,
        )
        tracer.close()
        assert '"dur_us": 0.0' in path.read_text()
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr

    def test_usage_errors(self, tmp_path):
        assert run_tool().returncode == 2
        assert run_tool(str(tmp_path / "missing.jsonl")).returncode == 2


class TestMetaRecords:
    """Ring-buffer metadata lines: skipped by event checks, validated
    for counter sanity."""

    def test_clean_ring_meta_passes(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [
            {"meta": "ring", "schema": 1, "capacity": 64,
             "events_seen": 100, "dropped": 36},
            {"type": "PageRead", "ts": 1, "scheme": "x", "cause": "host",
             "ppn": 1, "dur_us": 25.0},
        ]) + "\n")
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr

    def test_bad_meta_counters_fail(self, tmp_path):
        path = tmp_path / "bad_meta.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [
            {"meta": "ring", "schema": 1, "capacity": -1,
             "events_seen": 10, "dropped": 99},
            {"meta": 7},
        ]) + "\n")
        proc = run_tool(str(path))
        assert proc.returncode == 1
        err = proc.stderr
        assert "bad 'capacity'" in err
        assert "claims 99 dropped out of only 10 seen" in err
        assert "non-string kind" in err

    def test_real_ring_dump_is_clean(self, tmp_path):
        from repro.obs import RingBufferSink

        device = DeviceSpec(num_blocks=96, pages_per_block=16,
                            page_size=512, logical_fraction=0.7)
        ring = RingBufferSink(64)
        tracer = Tracer(sinks=[ring])
        run_scheme(
            "LazyFTL",
            uniform_random(300, int(device.logical_pages * 0.9),
                           write_ratio=0.9, seed=7),
            device=device, tracer=tracer,
        )
        path = tmp_path / "ring_dump.jsonl"
        ring.dump(str(path))
        assert ring.dropped > 0  # 300 requests overflow a 64-slot ring
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr


class TestSnapshotValidation:
    """The same tool validates report snapshots (auto-detected)."""

    @staticmethod
    def make_snapshot(tmp_path):
        from repro.obs.report import collect_report, save_snapshot

        device = DeviceSpec(num_blocks=96, pages_per_block=16,
                            page_size=512, logical_fraction=0.7)
        snapshot, _, _ = collect_report(
            "LazyFTL",
            uniform_random(400, int(device.logical_pages * 0.8),
                           write_ratio=0.8, seed=5),
            device=device,
        )
        path = tmp_path / "snap.json"
        save_snapshot(snapshot, str(path))
        return path, snapshot

    def test_valid_snapshot_passes(self, tmp_path):
        path, _ = self.make_snapshot(tmp_path)
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr
        assert "snapshot OK" in proc.stdout

    def test_broken_snapshot_fails(self, tmp_path):
        path, snapshot = self.make_snapshot(tmp_path)
        snapshot["latency"]["classes"]["overall"]["p99_us"] = -1
        snapshot["latency"]["classes"]["read"]["attributed_fraction"] = 2.0
        path.write_text(json.dumps(snapshot))
        proc = run_tool(str(path))
        assert proc.returncode == 1
        assert "not monotonic" in proc.stderr
        assert "attributed_fraction" in proc.stderr


class TestCauseStackConsistency:
    """Flash-op causes must agree with the open GC/merge spans."""

    @staticmethod
    def write(path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    def test_gc_cause_outside_gc_span(self, tmp_path):
        path = tmp_path / "gc_leak.jsonl"
        self.write(path, [
            {"type": "PageRead", "ts": 1, "scheme": "x", "cause": "gc",
             "ppn": 4, "dur_us": 25.0},
        ])
        proc = run_tool(str(path))
        assert proc.returncode == 1
        assert "attributed to gc outside any GC span" in proc.stderr

    def test_merge_cause_outside_merge_span(self, tmp_path):
        path = tmp_path / "merge_leak.jsonl"
        self.write(path, [
            {"type": "BlockErase", "ts": 1, "scheme": "x", "cause": "merge",
             "ppn": 2, "dur_us": 1500.0},
        ])
        proc = run_tool(str(path))
        assert proc.returncode == 1
        assert "attributed to merge outside any merge span" in proc.stderr

    def test_host_cause_inside_gc_span(self, tmp_path):
        path = tmp_path / "host_in_gc.jsonl"
        self.write(path, [
            {"type": "GCStart", "ts": 0, "scheme": "x", "cause": "gc"},
            {"type": "PageProgram", "ts": 1, "scheme": "x", "cause": "host",
             "ppn": 7, "dur_us": 200.0},
            {"type": "GCEnd", "ts": 2, "scheme": "x", "cause": "gc",
             "dur_us": 2.0},
        ])
        proc = run_tool(str(path))
        assert proc.returncode == 1
        assert "attributed to host inside an open GC span" in proc.stderr
        assert "cause stack leaked" in proc.stderr

    def test_consistent_attribution_passes(self, tmp_path):
        path = tmp_path / "consistent.jsonl"
        self.write(path, [
            {"type": "PageProgram", "ts": 0, "scheme": "x", "cause": "host",
             "ppn": 0, "dur_us": 200.0},
            {"type": "GCStart", "ts": 1, "scheme": "x", "cause": "gc"},
            {"type": "PageRead", "ts": 2, "scheme": "x", "cause": "gc",
             "ppn": 3, "dur_us": 25.0},
            # Deeper causes (mapping/convert) inside a span are legal:
            # innermost-wins pushes them over gc without an event pair.
            {"type": "PageProgram", "ts": 3, "scheme": "x",
             "cause": "convert", "ppn": 9, "dur_us": 200.0},
            {"type": "GCEnd", "ts": 4, "scheme": "x", "cause": "gc",
             "dur_us": 3.0},
            {"type": "PageRead", "ts": 5, "scheme": "x", "cause": "host",
             "ppn": 1, "dur_us": 25.0},
        ])
        proc = run_tool(str(path))
        assert proc.returncode == 0, proc.stderr

    def test_spans_track_per_scheme(self, tmp_path):
        # Scheme y's open GC span must not excuse scheme x's gc op.
        path = tmp_path / "per_scheme.jsonl"
        self.write(path, [
            {"type": "GCStart", "ts": 0, "scheme": "y", "cause": "gc"},
            {"type": "PageRead", "ts": 1, "scheme": "x", "cause": "gc",
             "ppn": 3, "dur_us": 25.0},
            {"type": "GCEnd", "ts": 2, "scheme": "y", "cause": "gc",
             "dur_us": 2.0},
        ])
        proc = run_tool(str(path))
        assert proc.returncode == 1
        assert "attributed to gc outside any GC span (x)" in proc.stderr
