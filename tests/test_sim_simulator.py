"""Tests for the trace-driven simulator, factory, runner and reports."""

import pytest

from repro.checks import SanitizedFTL
from repro.flash import FlashGeometry, NandFlash, UNIT_TIMING
from repro.ftl import PageFTL
from repro.sim import (
    DeviceSpec,
    Simulator,
    build_ftl,
    compare_schemes,
    run_scheme,
    standard_setup,
    sweep,
)
from repro.sim.report import format_series, format_table, relative_to
from repro.traces import IORequest, OpType, Trace, uniform_random


def make_sim():
    flash = NandFlash(
        FlashGeometry(num_blocks=32, pages_per_block=8), timing=UNIT_TIMING
    )
    return Simulator(PageFTL(flash, logical_pages=128))


class TestSimulatorReplay:
    def test_closed_loop_response_equals_service(self):
        sim = make_sim()
        trace = Trace([
            IORequest(OpType.WRITE, 0, 1),
            IORequest(OpType.WRITE, 1, 1),
        ])
        result = sim.run(trace)
        # UNIT timing, no GC: each write costs exactly 1 us of service.
        assert result.responses.overall.mean == 1.0
        assert result.requests == 2

    def test_open_loop_queueing_delay_included(self):
        sim = make_sim()
        trace = Trace([
            IORequest(OpType.WRITE, 0, 1, arrival_us=0.0),
            IORequest(OpType.WRITE, 1, 1, arrival_us=0.0),  # queues 1us
            IORequest(OpType.WRITE, 2, 1, arrival_us=100.0),  # idle device
        ])
        result = sim.run(trace)
        samples = [1.0, 2.0, 1.0]
        assert result.responses.overall.total == sum(samples)
        assert result.responses.overall.max == 2.0

    def test_multi_page_request_sums_service(self):
        sim = make_sim()
        trace = Trace([IORequest(OpType.WRITE, 0, 4)])
        result = sim.run(trace)
        assert result.responses.overall.mean == 4.0
        assert result.page_ops == 4

    def test_warmup_excluded_from_flash_stats(self):
        sim = make_sim()
        warmup = Trace([IORequest(OpType.WRITE, lpn, 1) for lpn in range(20)])
        trace = Trace([IORequest(OpType.READ, 0, 1)])
        result = sim.run(trace, warmup=warmup)
        assert result.flash.page_programs == 0
        assert result.flash.page_reads == 1

    def test_result_row_keys(self):
        sim = make_sim()
        result = sim.run(Trace([IORequest(OpType.WRITE, 0, 1)]))
        row = result.row()
        assert row["scheme"] == "ideal"
        assert "mean_us" in row and "erases" in row


class TestFactory:
    @pytest.mark.parametrize("scheme", ["BAST", "FAST", "DFTL", "LazyFTL",
                                        "ideal"])
    def test_build_each_scheme(self, scheme):
        flash = NandFlash(FlashGeometry(num_blocks=64, pages_per_block=16))
        ftl = build_ftl(scheme, flash, logical_pages=256)
        assert ftl.logical_pages == 256
        # sequential enforcement matches the scheme's programming style
        assert flash.enforce_sequential != ftl.requires_random_program

    def test_unknown_scheme(self):
        flash = NandFlash(FlashGeometry(num_blocks=64, pages_per_block=16))
        with pytest.raises(ValueError):
            build_ftl("CFTL", flash, logical_pages=256)

    def test_standard_setup_logical_fraction(self):
        flash, ftl, logical = standard_setup(
            "ideal", num_blocks=64, pages_per_block=16, page_size=512,
            logical_fraction=0.5,
        )
        assert logical == 64 * 16 // 2
        assert ftl.logical_pages == logical

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            standard_setup("ideal", logical_fraction=1.0)


class TestRunner:
    DEVICE = DeviceSpec(num_blocks=64, pages_per_block=16, page_size=512,
                        logical_fraction=0.6)

    def test_run_scheme_end_to_end(self):
        trace = uniform_random(300, 512, seed=0)
        result = run_scheme("LazyFTL", trace, device=self.DEVICE)
        assert result.requests == 300
        assert result.mean_response_us > 0

    def test_trace_exceeding_device_rejected(self):
        trace = uniform_random(10, 10 ** 7, seed=0)
        with pytest.raises(ValueError):
            run_scheme("ideal", trace, device=self.DEVICE)

    def test_compare_schemes_returns_all(self):
        trace = uniform_random(200, 512, seed=1)
        results = compare_schemes(
            trace, schemes=("ideal", "LazyFTL"), device=self.DEVICE
        )
        assert set(results) == {"ideal", "LazyFTL"}

    def test_sweep_runs_each_value(self):
        results = sweep(
            "ideal",
            trace_of=lambda n: uniform_random(n, 512, seed=2),
            parameter_values=[50, 100],
            options_of=lambda n: {},
            device_of=lambda n: self.DEVICE,
        )
        assert [r.requests for r in results] == [50, 100]


class TestVerifiedReplay:
    def test_detects_consistency(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=32, pages_per_block=8),
            timing=UNIT_TIMING,
        )
        ftl = SanitizedFTL(PageFTL(flash, logical_pages=128))
        trace = uniform_random(1000, 128, write_ratio=0.7, seed=3)
        Simulator(ftl).run(trace)
        ftl.sweep()
        assert ftl.model.acked_ops == trace.write_page_ops
        assert ftl.model.acked


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["LazyFTL", 1234.5], ["ideal", 7.0]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "LazyFTL" in text
        assert "1,234.5" in text

    def test_format_series(self):
        text = format_series(
            "uba", [2, 4], {"LazyFTL": [10.0, 8.0]}, title="E7"
        )
        assert "E7" in text
        assert "10.0" in text

    def test_relative_to(self):
        rel = relative_to(2.0, {"a": 4.0, "b": 2.0})
        assert rel == {"a": 2.0, "b": 1.0}

    def test_relative_to_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_to(0.0, {"a": 1.0})
