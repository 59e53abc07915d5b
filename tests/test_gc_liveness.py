"""Deferring translation-block victims must not starve the collector.

:func:`~repro.ftl.gc_policy.select_victim` passes over a translation block
until it is a quarter as valid as the data pick, and the data pick is
cost-benefit, which may take an old block with many live pages.  A data
pass with many live pages *consumes* blocks (the copies, and the
translation pages rewritten for them) before it frees one, so the rule
carries a liveness arm: on the free pool's last block the plain greedy
order applies, to both pools.  The stress matrix below ran clean on the
commit before the rule (the mixed greedy order) and must stay clean with
it and with cost-benefit data victims; the seeded case removes the arm
between the pools and shows the starvation it exists to prevent, in the
words of the error a starved collector now raises.
"""

import pytest

from repro.core import LazyConfig
from repro.flash import UNIT_TIMING
from repro.ftl import gc_policy
from repro.ftl.pool import OutOfBlocksError
from repro.sim.factory import standard_setup

from .test_gc_victim_index import churn

#: Footprints of skewed overwrites after the sequential fill.
FOOTPRINTS = 6


def build(scheme, threshold, channels, logical_fraction):
    if scheme == "LazyFTL":
        options = {"config": LazyConfig(
            uba_blocks=6, cba_blocks=3, gc_free_threshold=threshold)}
    else:
        options = {"cmt_entries": 64, "gc_free_threshold": threshold}
    return standard_setup(
        scheme, num_blocks=256, pages_per_block=16, page_size=512,
        logical_fraction=logical_fraction, timing=UNIT_TIMING,
        channels=channels, **options)


@pytest.mark.parametrize("logical_fraction", [0.80, 0.90])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("threshold", [3, 4])
@pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL"])
def test_skewed_overwrites_never_exhaust_the_pool(
        scheme, threshold, channels, logical_fraction):
    flash, ftl, logical = build(scheme, threshold, channels, logical_fraction)
    churn(flash, ftl, logical, FOOTPRINTS)
    stats = ftl.stats
    # Both kinds of victim were collected, and the counter splits them.
    assert 0 < stats.map_gc_copies < stats.map_writes
    assert stats.map_gc_copies < stats.gc_page_copies
    for lpn in range(0, logical, 11):
        assert ftl.read(lpn).data is not None


def test_without_the_liveness_arm_dftl_starves(monkeypatch):
    """Same device, same writes as a clean row of the matrix above: the
    pass that drains the pool is a data pass chosen while a far emptier
    translation block was waiting."""
    select_victim = gc_policy.select_victim
    monkeypatch.setattr(
        gc_policy, "select_victim",
        lambda data, maps, last_block: select_victim(data, maps, False))
    flash, ftl, logical = build("DFTL", 3, 1, 0.90)
    with pytest.raises(OutOfBlocksError) as failure:
        churn(flash, ftl, logical, FOOTPRINTS)
    message = str(failure.value)
    assert "free block pool exhausted" in message
    # The numbers that tell a starved collector from a mis-sized device.
    assert "free pool 0, GC threshold 3" in message
    assert "data blocks: 250 full, best (valid, pbn) (" in message
    assert "translation blocks: 5 full, best (valid, pbn) (" in message
    assert isinstance(failure.value.__cause__, OutOfBlocksError)


def test_a_device_with_nothing_to_reclaim_says_so():
    """The other ``OutOfBlocksError``: no victim at all - a mis-sized
    device, and the same numbers show it (no pick in either pool)."""
    flash, ftl, logical = standard_setup(
        "DFTL", num_blocks=96, pages_per_block=16, page_size=512,
        logical_fraction=0.9, timing=UNIT_TIMING, channels=4,
        cmt_entries=64, gc_free_threshold=4)
    with pytest.raises(OutOfBlocksError) as failure:
        churn(flash, ftl, logical, FOOTPRINTS)
    message = str(failure.value)
    assert "GC found no victim" in message
    assert "free pool 4, GC threshold 4" in message
    assert "best (valid, pbn) None" in message
