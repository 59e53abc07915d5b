"""Negative-path recovery tests: damaged anchors, torn checkpoints, and a
second power cut in the middle of recovery itself.

The contract under test: recovery either returns a fully consistent
instance or fails loudly - it must never hand back a half-built mapping.
"""

import random

import pytest

from repro.core import LazyConfig, LazyFTL, recover
from repro.core.lazyftl import ANCHOR_BLOCKS
from repro.flash import (
    DeviceOffError,
    FlashGeometry,
    NandFlash,
    PowerLossError,
    UNIT_TIMING,
)

pytestmark = pytest.mark.crash

LOGICAL = 96


def make_flash():
    return NandFlash(
        FlashGeometry(num_blocks=40, pages_per_block=8, page_size=64),
        timing=UNIT_TIMING,
    )


def make_lazy(flash, **cfg):
    defaults = {"uba_blocks": 4, "cba_blocks": 2, "gc_free_threshold": 3}
    defaults.update(cfg)
    return LazyFTL(flash, logical_pages=LOGICAL, config=LazyConfig(**defaults))


def torn_total(flash):
    """How many pages the newest checkpoint spans, from its first
    fragment (the one every torn set still has)."""
    firsts = [flash.page_data[ppn] for pbn in ANCHOR_BLOCKS
              for ppn in flash.valid_ppns(pbn)
              if flash.page_data[ppn].index == 0]
    return max(firsts, key=lambda fragment: fragment.ckpt_id).total


def write_workload(ftl, n, seed=5):
    rng = random.Random(seed)
    expected = {}
    for i in range(n):
        lpn = rng.randrange(LOGICAL)
        ftl.write(lpn, (lpn, i))
        expected[lpn] = (lpn, i)
    return expected


class TestBadAnchorBlock:
    def test_recover_fails_loudly_when_anchor_is_bad(self):
        flash = make_flash()
        ftl = make_lazy(flash)
        write_workload(ftl, 120)
        ftl.checkpoint()
        flash.power_off()
        # Simulate the anchor block wearing out while the device was off.
        anchor = ANCHOR_BLOCKS[0]
        flash.force_erase(anchor)  # ftlint: disable=FTL003 - fault injection
        flash.mark_bad(anchor)  # ftlint: disable=FTL003 - fault injection
        with pytest.raises(ValueError, match="anchor"):
            recover(flash, LOGICAL, ftl.config)


class TestTornCheckpoint:
    def test_incomplete_fragment_set_is_rejected(self):
        """Power dies between two fragments of a multi-page checkpoint.

        The torn set must be skipped (never half-applied): recovery falls
        back to scanning and every acknowledged write survives.
        """
        flash = make_flash()
        ftl = make_lazy(flash)
        expected = write_workload(ftl, 150)
        flash.fault.arm_after_programs(1)
        with pytest.raises(PowerLossError):
            ftl.checkpoint()
        # The checkpoint spans several of the 64-byte pages, so the cut
        # left a genuinely torn set.
        assert torn_total(flash) > 1
        recovered, report = recover(flash, LOGICAL, ftl.config)
        # The only checkpoint ever attempted is torn, so recovery must
        # not claim to have used one.
        assert not report.checkpoint_found
        for lpn, value in expected.items():
            assert recovered.read(lpn).data == value

    def test_torn_recheckpoint_falls_back_to_older_complete_one(self):
        """An older complete checkpoint plus scans must win over a newer
        torn one; no acknowledged write may be lost."""
        flash = make_flash()
        ftl = make_lazy(flash)
        expected = write_workload(ftl, 100, seed=6)
        ftl.checkpoint()  # complete checkpoint A
        rng = random.Random(7)
        for i in range(40):
            lpn = rng.randrange(LOGICAL)
            ftl.write(lpn, (lpn, 1000 + i))
            expected[lpn] = (lpn, 1000 + i)
        flash.fault.arm_after_programs(1)
        with pytest.raises(PowerLossError):
            ftl.checkpoint()  # checkpoint B is torn
        assert torn_total(flash) > 1
        recovered, report = recover(flash, LOGICAL, ftl.config)
        assert report.checkpoint_found  # A, not the torn B
        for lpn, value in expected.items():
            assert recovered.read(lpn).data == value


class TestCrashDuringRecovery:
    def test_second_power_cut_mid_rebuild_fails_loudly(self):
        flash = make_flash()
        ftl = make_lazy(flash)
        expected = write_workload(ftl, 140)
        flash.power_off()

        # Cut power again after a dozen OOB probes of the rebuild scan.
        original_probe = flash.probe_page
        probes = {"count": 0}

        def dying_probe(ppn):
            probes["count"] += 1
            if probes["count"] > 12:
                flash.power_off()
            return original_probe(ppn)

        flash.probe_page = dying_probe
        with pytest.raises(DeviceOffError):
            recover(flash, LOGICAL, ftl.config)
        assert probes["count"] > 12, "scan never reached the second cut"

        # Power restored: the exact same device must now recover fully -
        # the aborted attempt left no partial state behind (recovery is
        # read-only until it returns).
        del flash.probe_page  # drop the monkeypatch; the class method is back
        recovered, _ = recover(flash, LOGICAL, ftl.config)
        for lpn, value in expected.items():
            assert recovered.read(lpn).data == value

    def test_aborted_recovery_never_returns_an_instance(self):
        """Belt-and-braces: the failing call raises before producing any
        FTL object, so callers cannot observe half-built mappings."""
        flash = make_flash()
        ftl = make_lazy(flash)
        write_workload(ftl, 80)
        flash.power_off()
        original_probe = flash.probe_page

        def dying_probe(ppn):
            flash.power_off()
            return original_probe(ppn)

        flash.probe_page = dying_probe
        result = None
        try:
            result = recover(flash, LOGICAL, ftl.config)
        except DeviceOffError:
            pass
        assert result is None
