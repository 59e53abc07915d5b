"""Crash-recovery tests: checkpointing, OOB scans, and end-to-end power-loss
survival of acknowledged writes."""

import random
from unittest.mock import patch

import pytest

from repro.core import LazyConfig, LazyFTL, recover
from repro.core.recovery import CheckpointError, CheckpointScribe
from repro.flash import (
    FlashGeometry,
    NandFlash,
    PageKind,
    PowerLossError,
    UNIT_TIMING,
)
from repro.obs.events import Cause, EventType
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer

CONFIG = LazyConfig(uba_blocks=4, cba_blocks=2, gc_free_threshold=3)
LOGICAL = 96


def make_flash(blocks=40, pages=8, page_size=64):
    return NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages,
                      page_size=page_size),
        timing=UNIT_TIMING,
    )


def make_lazy(flash=None, **cfg):
    flash = flash if flash is not None else make_flash()
    defaults = {"uba_blocks": 4, "cba_blocks": 2, "gc_free_threshold": 3}
    defaults.update(cfg)
    return LazyFTL(flash, logical_pages=LOGICAL, config=LazyConfig(**defaults))


def run_until_power_loss(ftl, rng, expected, fail_after):
    """Apply random writes until the armed power fault trips.

    ``expected`` collects acknowledged writes.  Returns the in-flight
    ``(lpn, value)`` whose write raised: it was never acknowledged, so
    recovery may legitimately restore either the old value or this one
    (e.g. when the fault trips inside a piggy-backed checkpoint *after*
    the data page was programmed).
    """
    ftl.flash.fault.arm_after_programs(fail_after)
    inflight = None
    try:
        for i in range(10 ** 9):
            lpn = rng.randrange(LOGICAL)
            inflight = (lpn, (lpn, i))
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
    except PowerLossError:
        pass
    return inflight


def assert_recovered(recovered, expected, inflight=None):
    """Every acknowledged write must read back; the single unacknowledged
    in-flight write may read back as either the old or the new value."""
    for lpn, value in expected.items():
        got = recovered.read(lpn).data
        if got == value:
            continue
        if inflight is not None and inflight[0] == lpn \
                and got == inflight[1]:
            continue
        raise AssertionError(f"lpn {lpn}: read {got!r}, expected {value!r}")


class TestCheckpointScribe:
    def test_checkpoint_written_to_anchor(self):
        ftl = make_lazy()
        ftl.write(0, "x")
        ftl.checkpoint()
        assert ftl.stats.checkpoint_writes >= 1
        assert ftl.flash.write_ptr[0] > 0  # block 0 is an anchor

    def test_ping_pong_rotation_preserves_previous_checkpoint(self):
        ftl = make_lazy()
        for i in range(40):  # many checkpoints overflow one anchor
            ftl.write(i % LOGICAL, i)
            ftl.checkpoint()
        # Both anchors have been used; at least one complete checkpoint
        # must always be recoverable.
        ftl.flash.power_off()
        recovered, report = recover(ftl.flash, LOGICAL, CONFIG)
        assert report.checkpoint_found

    def test_oversized_checkpoint_rejected(self):
        flash = make_flash(blocks=40, pages=2, page_size=8)
        scribe = CheckpointScribe(
            flash, (0, 1), __import__("repro.flash", fromlist=["x"]).SequenceCounter(),
            __import__("repro.ftl.stats", fromlist=["x"]).FtlStats(),
        )
        huge = {
            "maps": {"gtd": [None] * 10000, "full_blocks": [], "frontier": None},
            "uba": [], "cba": [], "dba": [], "free": [], "seq": 0,
        }
        with pytest.raises(CheckpointError):
            scribe.write(huge)


class TestRecoveryBasics:
    def test_recover_without_any_checkpoint_falls_back_to_full_scan(self):
        ftl = make_lazy()
        for lpn in range(20):
            ftl.write(lpn, ("v", lpn))
        ftl.flash.power_off()
        recovered, report = recover(ftl.flash, LOGICAL, CONFIG)
        assert not report.checkpoint_found
        for lpn in range(20):
            assert recovered.read(lpn).data == ("v", lpn)

    def test_recover_with_checkpoint_and_no_later_writes(self):
        ftl = make_lazy()
        for lpn in range(20):
            ftl.write(lpn, ("v", lpn))
        ftl.checkpoint()
        ftl.flash.power_off()
        recovered, report = recover(ftl.flash, LOGICAL, CONFIG)
        assert report.checkpoint_found
        for lpn in range(20):
            assert recovered.read(lpn).data == ("v", lpn)

    def test_recover_finds_writes_after_checkpoint(self):
        ftl = make_lazy()
        for lpn in range(10):
            ftl.write(lpn, ("old", lpn))
        ftl.checkpoint()
        for lpn in range(10):
            ftl.write(lpn, ("new", lpn))
        ftl.flash.power_off()
        recovered, report = recover(ftl.flash, LOGICAL, CONFIG)
        for lpn in range(10):
            assert recovered.read(lpn).data == ("new", lpn)

    def test_recovered_umt_matches_live_umt(self):
        ftl = make_lazy()
        rng = random.Random(4)
        for i in range(500):
            ftl.write(rng.randrange(LOGICAL), i)
        ftl.checkpoint()
        for i in range(100):
            ftl.write(rng.randrange(LOGICAL), (i, "post"))
        live = dict(ftl.umt.items())
        ftl.flash.power_off()
        recovered, _ = recover(ftl.flash, LOGICAL, CONFIG)
        assert dict(recovered.umt.items()) == live

    def test_recovery_scan_is_bounded_with_checkpoint(self):
        """With a checkpoint, recovery fully scans only UBA/CBA/MBA/free."""
        ftl = make_lazy()
        rng = random.Random(5)
        for i in range(1500):
            ftl.write(rng.randrange(LOGICAL), i)
        ftl.checkpoint()
        for i in range(50):
            ftl.write(rng.randrange(LOGICAL), (i, "post"))
        ftl.flash.power_off()
        _, with_ckpt = recover(ftl.flash, LOGICAL, CONFIG)
        assert with_ckpt.blocks_fully_scanned < ftl.flash.geometry.num_blocks
        assert with_ckpt.blocks_probed > 0

    def test_traced_recovery_reports_each_gmt_read(self):
        """Each GMT page recovery reads is one ``MapRead`` under the
        recovery cause; tracing moves no counter and no report field."""
        recoveries = []
        for traced in (False, True):
            ftl = make_lazy()
            rng = random.Random(6)
            for i in range(1500):
                ftl.write(rng.randrange(LOGICAL), i)
            ftl.checkpoint()
            for i in range(60):
                ftl.write(rng.randrange(LOGICAL), (i, "post"))
            ftl.flash.power_off()
            ring = RingBufferSink()
            if traced:
                ftl.flash.tracer = Tracer([ring])
            gmt_reads = []
            real = NandFlash.read_page

            def read_page(flash, ppn):
                if flash.oob_kind[ppn] == PageKind.MAPPING:
                    gmt_reads.append(ppn)
                return real(flash, ppn)

            with patch.object(NandFlash, "read_page", read_page):
                recovered, report = recover(ftl.flash, LOGICAL, CONFIG)
            recoveries.append((recovered.stats.as_dict(), report))
        assert ring.dropped == 0
        maps = [event for event in ring.events
                if event.type is EventType.MAP_READ]
        assert gmt_reads and [event.ppn for event in maps] == gmt_reads
        assert {event.cause for event in maps} == {Cause.RECOVERY}
        assert recoveries[0] == recoveries[1]


class TestPowerLossEndToEnd:
    @pytest.mark.parametrize("fail_after", [5, 37, 120, 400, 999])
    def test_all_acknowledged_writes_survive(self, fail_after):
        ftl = make_lazy(checkpoint_interval=100)
        rng = random.Random(fail_after)
        expected = {}
        for i in range(200):  # pre-populate
            lpn = rng.randrange(LOGICAL)
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
        inflight = run_until_power_loss(ftl, rng, expected, fail_after)
        recovered, report = recover(ftl.flash, LOGICAL, CONFIG)
        assert_recovered(recovered, expected, inflight)

    @pytest.mark.parametrize("seed", range(6))
    def test_crash_at_random_points_then_continue_writing(self, seed):
        """Recovery must leave a fully functional FTL, not just a readable
        one: keep writing (with GC churn) after the crash."""
        ftl = make_lazy(checkpoint_interval=64)
        rng = random.Random(seed)
        expected = {}
        for i in range(300):
            lpn = rng.randrange(LOGICAL)
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
        inflight = run_until_power_loss(ftl, rng, expected,
                                        fail_after=rng.randrange(30, 300))
        recovered, _ = recover(ftl.flash, LOGICAL, CONFIG)
        assert_recovered(recovered, expected, inflight)
        for i in range(1000):
            lpn = rng.randrange(LOGICAL)
            recovered.write(lpn, (lpn, "post", i))
            expected[lpn] = (lpn, "post", i)
        for lpn, value in expected.items():
            assert recovered.read(lpn).data == value

    def test_double_crash(self):
        """Crash, recover, crash again mid-recovery workload, recover."""
        ftl = make_lazy(checkpoint_interval=50)
        rng = random.Random(11)
        expected = {}
        for i in range(250):
            lpn = rng.randrange(LOGICAL)
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
        inflight = run_until_power_loss(ftl, rng, expected, fail_after=60)
        recovered, _ = recover(ftl.flash, LOGICAL, CONFIG)
        assert_recovered(recovered, expected, inflight)
        if inflight is not None:
            expected[inflight[0]] = recovered.read(inflight[0]).data
        recovered.checkpoint()
        inflight = run_until_power_loss(recovered, rng, expected,
                                        fail_after=45)
        final, _ = recover(recovered.flash, LOGICAL, CONFIG)
        assert_recovered(final, expected, inflight)

    def test_crash_during_heavy_gc_phase(self):
        ftl = make_lazy(checkpoint_interval=200)
        rng = random.Random(13)
        expected = {}
        # Fill the device so every new write rides on GC.
        for i in range(1200):
            lpn = rng.randrange(LOGICAL)
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
        inflight = run_until_power_loss(ftl, rng, expected, fail_after=77)
        recovered, _ = recover(ftl.flash, LOGICAL, CONFIG)
        assert_recovered(recovered, expected, inflight)

    def test_recovery_cost_reported(self):
        ftl = make_lazy()
        for lpn in range(30):
            ftl.write(lpn, lpn)
        ftl.checkpoint()
        ftl.flash.power_off()
        _, report = recover(ftl.flash, LOGICAL, CONFIG)
        assert report.pages_read > 0
        assert report.latency_us > 0
        assert report.umt_entries_rebuilt >= 0


class TestVictimsAfterRecovery:
    """Cost-benefit ages each victim candidate by its seal, which lives
    nowhere but the OOB: recovery re-reads it when it refills the victim
    pools, so a recovered device picks the victims the uncrashed one
    does.  (A crash with open UBA / CBA blocks changes more than seals -
    recovery closes some of them - so the power cycle follows a flush.)"""

    @staticmethod
    def skewed(seed, n):
        rng = random.Random(seed)
        return [rng.randrange(LOGICAL // 5) if rng.random() < 0.8
                else rng.randrange(LOGICAL) for _ in range(n)]

    @staticmethod
    def next_victims(ftl, lpns, count=20):
        gc = ftl._gc
        select = gc.select
        victims = []

        def recorded():
            victims.append(select())
            return victims[-1]

        gc.select = recorded
        for i, lpn in enumerate(lpns):
            if len(victims) >= count:
                break
            ftl.write(lpn, i)
        assert len(victims) >= count
        return victims[:count]

    @pytest.mark.parametrize("power_cycle", [False, True])
    def test_the_next_20_victims_are_the_uncrashed_devices(self, power_cycle):
        twins = [make_lazy() for _ in range(2)]
        for ftl in twins:
            for i, lpn in enumerate(self.skewed(1, 1500)):
                ftl.write(lpn, i)
            ftl.flush()
        live, crashed = twins
        if power_cycle:
            crashed.flash.power_off()
            crashed, _ = recover(crashed.flash, LOGICAL, CONFIG)
        else:
            crashed._restore_blocks(
                crashed.uba_blocks, crashed.cba_blocks, crashed.dba_blocks,
                crashed._pool.snapshot(), crashed.mapping_store.snapshot())
        lpns = self.skewed(2, 1500)
        assert self.next_victims(crashed, lpns) == \
            self.next_victims(live, lpns)
