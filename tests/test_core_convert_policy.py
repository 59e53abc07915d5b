"""Tests for the conversion-victim policy option (fifo vs cheapest)."""

import random

import pytest

from repro.core import LazyConfig, LazyFTL
from repro.flash import SLC_TIMING, UNIT_TIMING, FlashGeometry, NandFlash


def make_lazy(policy="fifo", blocks=48, pages=8, page_size=64, logical=96):
    flash = NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages,
                      page_size=page_size),
        timing=UNIT_TIMING,
    )
    config = LazyConfig(uba_blocks=4, cba_blocks=2, gc_free_threshold=3,
                        convert_policy=policy)
    return LazyFTL(flash, logical_pages=logical, config=config)


class TestConfigValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            LazyConfig(convert_policy="lifo")

    @pytest.mark.parametrize("policy", ["fifo", "cheapest"])
    def test_valid_policies(self, policy):
        assert LazyConfig(convert_policy=policy).convert_policy == policy


class TestCheapestPolicy:
    def test_picks_block_spanning_fewest_gmt_pages(self):
        ftl = make_lazy(policy="cheapest")
        # Block A: 8 writes in one GMT page (lpns 0-7 of 16-entry page 0).
        for lpn in range(8):
            ftl.write(lpn, lpn)
        # Block B: 8 writes spanning 6 GMT pages.
        for lpn in (16, 32, 48, 64, 80, 17, 33, 49):
            ftl.write(lpn, lpn)
        # Fill two more blocks to hit UBA capacity; next write converts.
        for lpn in (1, 2, 3, 5, 6, 7, 9, 10):
            ftl.write(lpn, ("again", lpn))
        map_writes_before = ftl.stats.map_writes
        converts_before = ftl.stats.converts
        for lpn in range(56, 64):
            ftl.write(lpn, lpn)
        ftl.write(90, "trigger")  # UBA at capacity -> one conversion
        assert ftl.stats.converts == converts_before + 1
        # The cheapest victim's commit must touch very few GMT pages.
        assert ftl.stats.map_writes - map_writes_before <= 3

    @pytest.mark.parametrize("policy", ["fifo", "cheapest"])
    def test_integrity_under_both_policies(self, policy):
        ftl = make_lazy(policy=policy)
        rng = random.Random(3)
        shadow = {}
        for i in range(2500):
            lpn = rng.randrange(96)
            ftl.write(lpn, (lpn, i))
            shadow[lpn] = (lpn, i)
        for lpn, value in shadow.items():
            assert ftl.read(lpn).data == value
        assert ftl.stats.merges_total == 0

    def test_cheapest_commits_no_fewer_entries_overall(self):
        """Both policies eventually commit everything (flush drains)."""
        results = {}
        for policy in ("fifo", "cheapest"):
            ftl = make_lazy(policy=policy)
            rng = random.Random(5)
            for i in range(1000):
                ftl.write(rng.randrange(96), i)
            ftl.flush()
            assert len(ftl.umt) == 0
            results[policy] = ftl.stats.batched_commits
        # Same workload, same total entries committed (plus GC-relocations
        # which may differ slightly between runs).
        assert abs(results["fifo"] - results["cheapest"]) < 400

    def test_recovery_works_with_cheapest_policy(self):
        from repro.core import recover
        from repro.flash import PowerLossError

        ftl = make_lazy(policy="cheapest")
        config = ftl.config
        rng = random.Random(9)
        shadow = {}
        ftl.checkpoint()
        ftl.flash.fault.arm_after_programs(600)
        inflight = None
        try:
            for i in range(10 ** 9):
                lpn = rng.randrange(96)
                inflight = (lpn, (lpn, i))
                ftl.write(lpn, (lpn, i))
                shadow[lpn] = (lpn, i)
        except PowerLossError:
            pass
        recovered, _ = recover(ftl.flash, 96, config)
        for lpn, value in shadow.items():
            got = recovered.read(lpn).data
            assert got == value or (inflight and lpn == inflight[0]
                                    and got == inflight[1])


class TestStripedFifo:
    def test_a_conversion_never_takes_a_block_its_frontier_holds_open(self):
        # Four channels: the UBA and CBA each keep several blocks open and
        # fill them unevenly, so the oldest member may still be open.
        flash = NandFlash(
            FlashGeometry(num_blocks=96, pages_per_block=8, page_size=64,
                          channels=4),
            timing=SLC_TIMING,
        )
        config = LazyConfig(uba_blocks=4, cba_blocks=4, gc_free_threshold=3)
        ftl = LazyFTL(flash, logical_pages=320, config=config)
        taken = []
        convert_block = ftl._convert_block

        def spy(pbn):
            taken.append((pbn, ftl._uba_frontier.open_blocks
                          + ftl._cba_frontier.open_blocks))
            return convert_block(pbn)

        ftl._convert_block = spy
        rng = random.Random(11)
        for i in range(4000):
            flash.begin_host_op()
            lpn = rng.randrange(64) if rng.random() < 0.7 \
                else rng.randrange(320)
            ftl.write(lpn, (lpn, i))
        assert len(taken) > 50
        assert all(pbn not in held for pbn, held in taken)
        ftl._convert_block = convert_block
        ftl.flush()  # a flush converts the open blocks last
        assert not ftl.uba_blocks and not ftl.cba_blocks
