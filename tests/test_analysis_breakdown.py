"""Tests for the device-time breakdown: the traced per-cause table, which
E5 prints, totals the device's own time."""

import importlib.util
import pathlib
import re
import sys

import pytest

from repro.analysis import ATTRIBUTION_HEADERS, attribution_rows
from repro.flash import FlashGeometry, NandFlash, UNIT_TIMING
from repro.ftl import PageFTL
from repro.obs import Tracer
from repro.sim import DeviceSpec, Simulator, compare_schemes
from repro.traces import uniform_random

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

SMALL_DEVICE = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                          logical_fraction=0.7)


def _traced_ideal(requests):
    flash = NandFlash(FlashGeometry(num_blocks=32, pages_per_block=8),
                      timing=UNIT_TIMING)
    ftl = PageFTL(flash, logical_pages=128)
    tracer = Tracer()
    result = Simulator(ftl, tracer=tracer).run(
        uniform_random(requests, 128, seed=0))
    return result, tracer.attribution


class TestTimeBreakdown:
    def test_breakdown_consistent_with_flash_totals(self):
        """Attributed time must equal the device's measured total."""
        result, attribution = _traced_ideal(1500)
        summary = attribution.scheme_summary(result.scheme)
        assert summary["time_by_cause_us"]["gc"] > 0
        assert summary["total_us"] == pytest.approx(result.flash.total_us)

    def test_rows_match_headers(self):
        _, attribution = _traced_ideal(200)
        rows = attribution_rows(attribution)
        assert len(rows) == 1
        assert len(rows[0]) == len(ATTRIBUTION_HEADERS)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_e05_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _device_time_rows(text):
    """scheme -> (sum of the part columns, in ms) of the last table."""
    lines = text.splitlines()
    start = max(i for i, line in enumerate(lines)
                if line.startswith("device-time breakdown"))
    headers = re.split(r"\s{2,}", lines[start + 1].strip())
    parts = [i for i, h in enumerate(headers)
             if h.endswith("ms") and h != "total_ms"]
    rows = {}
    for line in lines[start + 3:]:
        cells = line.split()
        rows[cells[0]] = sum(float(cells[i].replace(",", ""))
                             for i in parts)
    return rows


class TestE5Table:
    """E5's device-time table, run on a small 1x1x1 device: each scheme's
    parts add up to its device busy time.  A table derived from counters
    x timing charged each translation-page GC copy twice (as a GC copy
    and as a map read + write)."""

    REQUESTS = 1500

    def test_parts_total_device_busy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "conftest", _load("conftest"))
        e05 = _load("bench_e05_merge_overhead")
        emitted = {}
        monkeypatch.setattr(e05, "N_REQUESTS", self.REQUESTS)
        monkeypatch.setattr(e05, "HEADLINE_DEVICE", SMALL_DEVICE)
        monkeypatch.setattr(e05, "emit",
                            lambda name, text: emitted.update({name: text}))

        class _Once:
            @staticmethod
            def pedantic(run, **_):
                return run()

        e05.test_e05_merge_overhead(_Once())
        rows = _device_time_rows(emitted["e05_merge_overhead"])

        trace = uniform_random(
            self.REQUESTS, int(SMALL_DEVICE.logical_pages * 0.8), seed=0,
            name="random")
        results = compare_schemes(trace, schemes=e05.SCHEMES,
                                  device=SMALL_DEVICE, precondition="steady")
        assert sorted(rows) == sorted(e05.SCHEMES)
        for scheme in ("DFTL", "LazyFTL"):
            assert results[scheme].ftl_stats.map_gc_copies > 0, scheme
        for scheme, result in results.items():
            # six columns rendered to 0.1 ms each
            assert rows[scheme] == pytest.approx(
                result.device_busy_us / 1000.0, abs=0.35), scheme
