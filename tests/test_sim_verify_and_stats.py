"""Tests for content-checked replay, FTL stats arithmetic and steady
preconditioning."""

import pytest

from repro.checks import SanitizedFTL, SanitizerViolation, ViolationKind
from repro.core import LazyConfig, LazyFTL
from repro.flash import FlashGeometry, FlashStats, NandFlash, UNIT_TIMING
from repro.ftl import PageFTL
from repro.ftl.stats import FtlStats
from repro.sim import DeviceSpec, Simulator, run_scheme
from repro.traces import IORequest, OpType, Trace, uniform_random


def verified_replay(ftl, trace):
    """The simulator's replay with every read checked, then the sweep."""
    Simulator(ftl).run(trace)
    ftl.sweep()


class TestVerifiedReplay:
    """A replay verified by content: ``SanitizedFTL`` over the scheme
    writes ``(lpn, version)`` tokens where the simulator sends no
    payload, checks every read against its model, and ``sweep()`` reads
    every page back at the end."""

    def test_counts(self):
        flash = NandFlash(FlashGeometry(num_blocks=16, pages_per_block=8),
                          timing=UNIT_TIMING)
        ftl = SanitizedFTL(PageFTL(flash, logical_pages=64))
        trace = Trace([
            IORequest(OpType.WRITE, 0, 2),
            IORequest(OpType.READ, 0, 1),
            IORequest(OpType.READ, 50, 1),  # never written: must read None
        ])
        verified_replay(ftl, trace)
        assert ftl.model.acked_ops == 2
        assert ftl.model.acked == {0: (0, 0), 1: (1, 1)}
        assert ftl.read(1).data == (1, 1)

    def test_detects_corruption(self):
        class LyingFTL(PageFTL):
            """Corrupts the second read."""

            reads = 0

            def read(self, lpn):
                result = super().read(lpn)
                self.reads += 1
                if self.reads == 2:
                    return result._replace(data="garbage")
                return result

        flash = NandFlash(FlashGeometry(num_blocks=16, pages_per_block=8),
                          timing=UNIT_TIMING)
        ftl = SanitizedFTL(LyingFTL(flash, logical_pages=64))
        trace = Trace([
            IORequest(OpType.WRITE, 0, 1),
            IORequest(OpType.READ, 0, 1),
            IORequest(OpType.READ, 0, 1),
        ])
        with pytest.raises(SanitizerViolation) as caught:
            Simulator(ftl).run(trace)
        assert caught.value.violation.kind is ViolationKind.SHADOW_MISMATCH
        assert caught.value.violation.lpn == 0

    def test_a_request_is_checked_through_the_run_ops(self, monkeypatch):
        """The payloads compared are the ones ``read_run`` returned - the
        path the simulator drives - never-written pages included."""
        flash = NandFlash(FlashGeometry(num_blocks=64, pages_per_block=8),
                          timing=UNIT_TIMING)
        ftl = SanitizedFTL(LazyFTL(flash, 128, LazyConfig(
            uba_blocks=4, cba_blocks=2, gc_free_threshold=3)))
        trace = Trace([
            IORequest(OpType.WRITE, 4, 6),
            IORequest(OpType.READ, 2, 10),  # 2 holes, 6 written, 2 holes
        ])
        verified_replay(ftl, trace)
        honest = LazyFTL.read_run
        for index, lpn in ((3, 5), (0, 2)):  # a written page, a hole

            def lying_read_run(self, first, n, *duties, index=index):
                result = honest(self, first, n, *duties)
                result.data[index] = "garbage"
                return result

            monkeypatch.setattr(LazyFTL, "read_run", lying_read_run)
            with pytest.raises(SanitizerViolation, match=f"lpn {lpn}:"):
                Simulator(ftl).run(trace)


class TestFtlStatsArithmetic:
    def test_snapshot_is_independent(self):
        stats = FtlStats(host_writes=5)
        snap = stats.snapshot()
        stats.host_writes = 10
        assert snap.host_writes == 5

    def test_diff(self):
        before = FtlStats(host_writes=5, merges_full=1)
        after = FtlStats(host_writes=9, merges_full=4, map_reads=2)
        d = after.diff(before)
        assert d.host_writes == 4
        assert d.merges_full == 3
        assert d.map_reads == 2

    def test_merges_total(self):
        s = FtlStats(merges_full=1, merges_partial=2, merges_switch=3)
        assert s.merges_total == 6

    def test_as_dict_covers_all_fields(self):
        s = FtlStats()
        assert set(s.as_dict()) == set(FtlStats._FIELDS)
        assert set(FtlStats._FIELDS) == set(FtlStats.__slots__)


class TestOneCounterImplementation:
    @pytest.mark.parametrize("cls", [FlashStats, FtlStats])
    def test_unknown_counter_rejected(self, cls):
        with pytest.raises(TypeError, match="no counter"):
            cls(host_writes=1, page_reads=1)

    def test_time_counters_start_as_floats(self):
        zero = FlashStats().as_dict()
        assert [name for name, value in zero.items()
                if isinstance(value, float)] == [
            "read_us", "program_us", "erase_us"]
        assert all(type(v) is int for v in FtlStats().as_dict().values())

    def test_equality_is_per_class(self):
        assert FlashStats(page_reads=2) == FlashStats(page_reads=2)
        assert FlashStats(page_reads=2) != FlashStats(page_reads=3)
        assert FlashStats() != FtlStats()
        flash = FlashStats(page_reads=3, read_us=75.0)
        assert flash.diff(FlashStats(page_reads=1, read_us=25.0)) == \
            FlashStats(page_reads=2, read_us=50.0)
        assert flash.snapshot() == flash and flash.snapshot() is not flash


class TestSteadyPreconditioning:
    DEVICE = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                        logical_fraction=0.75)

    def test_steady_mode_reaches_gc_before_measurement(self):
        trace = uniform_random(200, int(self.DEVICE.logical_pages * 0.8),
                               seed=0)
        plain = run_scheme("ideal", trace, device=self.DEVICE,
                           precondition=True)
        steady = run_scheme("ideal", trace, device=self.DEVICE,
                            precondition="steady")
        # With plain fill the short measured run sees little or no GC; in
        # steady mode GC pressure exists from the first measured request.
        assert steady.erases >= plain.erases
        assert steady.mean_response_us >= plain.mean_response_us

    def test_measured_counters_exclude_warmup(self):
        trace = uniform_random(50, int(self.DEVICE.logical_pages * 0.8),
                               seed=0)
        result = run_scheme("ideal", trace, device=self.DEVICE,
                            precondition="steady")
        assert result.ftl_stats.host_writes == trace.write_page_ops
