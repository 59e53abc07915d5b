"""Tests for the command-line interface."""

import pytest

from repro.cli import _device_from_args, _trace_from_args, build_parser, main
from repro.obs import Tracer
from repro.sim import compare_schemes


SMALL_DEVICE = [
    "--blocks", "96", "--pages-per-block", "16", "--page-size", "512",
    "--logical-fraction", "0.7",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.trace == "financial1"
        assert "LazyFTL" in args.schemes

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--schemes", "CFTL"])

    def test_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--trace", "nonsense"])


class TestCommands:
    def test_compare_small(self, capsys):
        rc = main([
            "compare", "--trace", "random", "--requests", "300",
            "--schemes", "LazyFTL", "ideal", *SMALL_DEVICE,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LazyFTL" in out
        assert "vs theoretically optimal" in out

    def test_compare_with_geometry(self, capsys):
        rc = main([
            "compare", "--trace", "random", "--requests", "300",
            "--schemes", "LazyFTL", "ideal", "--channels", "2",
            *SMALL_DEVICE,
        ])
        assert rc == 0
        assert "LazyFTL" in capsys.readouterr().out

    def test_bad_geometry_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "compare", "--trace", "random", "--requests", "100",
                "--channels", "nonsense", *SMALL_DEVICE,
            ])

    def test_crashcheck_geometry(self, capsys):
        rc = main([
            "crashcheck", "--scheme", "LazyFTL", "--ops", "60",
            "--channels", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crash points explored" in out

    def test_characterize(self, capsys):
        rc = main([
            "characterize", "--trace", "tpcc", "--requests", "500",
            *SMALL_DEVICE,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "write_ratio" in out

    def test_replay_spc(self, tmp_path, capsys):
        p = tmp_path / "t.spc"
        p.write_text("\n".join(
            f"0,{i * 8},2048,W,{i * 0.001}" for i in range(50)
        ))
        rc = main([
            "replay-spc", str(p), "--schemes", "ideal", *SMALL_DEVICE,
        ])
        assert rc == 0
        assert "replay of" in capsys.readouterr().out

    def test_replay_spc_too_big(self, tmp_path, capsys):
        p = tmp_path / "big.spc"
        # no compaction issue: compact=True densifies, so build many pages
        p.write_text("\n".join(
            f"0,{i * 8},2048,W,{i * 0.001}" for i in range(5000)
        ))
        rc = main([
            "replay-spc", str(p), "--schemes", "ideal",
            "--blocks", "24", "--pages-per-block", "16",
            "--page-size", "512", "--logical-fraction", "0.7",
        ])
        assert rc == 2


@pytest.mark.obs
class TestTracingCommands:
    def test_compare_trace_out_then_inspect(self, tmp_path, capsys):
        """The record/inspect loop: compare writes a schema-valid JSONL
        trace, inspect-trace decomposes it per cause."""
        path = tmp_path / "events.jsonl"
        rc = main([
            "compare", "--trace", "random", "--requests", "300",
            "--schemes", "FAST", "LazyFTL",
            "--trace-out", str(path), *SMALL_DEVICE,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flash time by cause" in out
        assert path.exists() and path.stat().st_size > 0

        rc = main(["inspect-trace", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flash time by cause" in out
        assert "merge_ms" in out
        assert "LazyFTL" in out and "FAST" in out

    def test_compare_metrics_flag(self, capsys):
        rc = main([
            "compare", "--trace", "random", "--requests", "200",
            "--schemes", "LazyFTL", "--metrics", *SMALL_DEVICE,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "\n  LazyFTL\n" in out
        assert "events.HostWrite" in out
        assert "latency.write" in out and "latency.overall" in out

    def test_compare_metrics_are_per_scheme(self, capsys):
        """Each scheme's printed event counts are its own run's, not the
        sum over every scheme of the comparison."""
        argv = ["compare", "--trace", "random", "--requests", "200",
                "--schemes", "LazyFTL", "DFTL", "--metrics", *SMALL_DEVICE]
        assert main(argv) == 0
        printed, scheme = {}, None
        for line in capsys.readouterr().out.split("metrics:")[-1].splitlines():
            if line.strip() in ("LazyFTL", "DFTL"):
                scheme = line.strip()
            elif line.strip().startswith("events.HostWrite "):
                printed[scheme] = int(line.split()[-1])

        args = build_parser().parse_args(argv)
        device = _device_from_args(args)
        results = compare_schemes(
            _trace_from_args(args, device), schemes=("LazyFTL", "DFTL"),
            device=device, tracer=Tracer(),
        )
        assert printed == {
            s: results[s].attribution["events"]["HostWrite"]
            for s in ("LazyFTL", "DFTL")
        }

    def test_inspect_trace_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["inspect-trace", str(path)]) == 2
        assert "no events" in capsys.readouterr().err

    def test_inspect_trace_missing_file(self, tmp_path, capsys):
        assert main(["inspect-trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_inspect_trace_garbage(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("hello world\n")
        assert main(["inspect-trace", str(path)]) == 2
        assert "bad trace record on line 1" in capsys.readouterr().err

    def test_trace_out_unwritable(self, tmp_path, capsys):
        rc = main([
            "compare", "--trace", "random", "--requests", "100",
            "--schemes", "ideal", *SMALL_DEVICE,
            "--trace-out", str(tmp_path / "no-such-dir" / "t.jsonl"),
        ])
        assert rc == 2
        assert "cannot open --trace-out" in capsys.readouterr().err


@pytest.mark.obs
class TestReportCommand:
    def test_live_report_renders_dashboard(self, capsys):
        rc = main([
            "report", "--trace", "random", "--requests", "400",
            "--scheme", "LazyFTL", *SMALL_DEVICE,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "service latency by op class" in out
        assert "where the time went" in out
        assert "decomposition invariant: OK" in out

    def test_json_output_is_a_valid_snapshot(self, capsys):
        import json

        from repro.obs.report import validate_snapshot

        rc = main([
            "report", "--trace", "random", "--requests", "400",
            "--json", *SMALL_DEVICE,
        ])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert validate_snapshot(snapshot) == []
        assert snapshot["scheme"] == "LazyFTL"  # the default scheme
        classes = snapshot["latency"]["classes"]
        assert classes["overall"]["attributed_fraction"] >= 0.99

    def test_snapshot_round_trip(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        rc = main([
            "report", "--trace", "random", "--requests", "300",
            "--snapshot", str(path), *SMALL_DEVICE,
        ])
        assert rc == 0
        assert "snapshot written" in capsys.readouterr().err
        rc = main(["report", "--from-snapshot", str(path)])
        assert rc == 0
        assert "service latency by op class" in capsys.readouterr().out

    def test_from_snapshot_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        assert main(["report", "--from-snapshot", str(path)]) == 2
        assert capsys.readouterr().err
        assert main([
            "report", "--from-snapshot", str(tmp_path / "missing.json"),
        ]) == 2

    def test_ring_events_out_feeds_inspect_trace(self, tmp_path, capsys):
        """--ring-capacity + --events-out yields a trace whose ring meta
        makes inspect-trace warn about the dropped window."""
        path = tmp_path / "ring.jsonl"
        rc = main([
            "report", "--trace", "random", "--requests", "500",
            "--ring-capacity", "64", "--events-out", str(path),
            *SMALL_DEVICE,
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "dropped by the ring" in err
        rc = main(["inspect-trace", str(path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "flash time by cause" in captured.out
        assert "WARNING: ring buffer (capacity 64) dropped" in captured.err
        assert "most recent window" in captured.err


@pytest.mark.crash
class TestCrashcheckCLI:
    def test_clean_exploration(self, capsys):
        assert main(["crashcheck", "--ops", "60", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "boundaries" in out
        assert "0 failure(s)" in out

    def test_multiple_schemes_and_jobs(self, capsys):
        rc = main(["crashcheck", "--scheme", "LazyFTL", "--scheme",
                   "ideal", "--ops", "50", "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LazyFTL:" in out and "ideal:" in out

    def test_mutate_self_test(self, capsys):
        rc = main(["crashcheck", "--scheme", "LazyFTL", "--ops", "100",
                   "--mutate"])
        assert rc == 0
        assert "mutation detected" in capsys.readouterr().out

    def test_repro_replay_reports_violations(self, capsys):
        rc = main([
            "crashcheck", "--repro",
            "crashmc:v1:scheme=LazyFTL:oplist=w21.w13:crash=2"
            ":ckpt=48:mutate=1",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "reproducer:" in out

    def test_bad_reproducer_rejected(self, capsys):
        assert main(["crashcheck", "--repro", "garbage"]) == 2
        assert "bad reproducer" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crashcheck", "--scheme", "BAST"])
