"""The hazard ledger's evidence (docs/INTERNALS.md, "The hazard ledger").

The path-sensitive lint rules FTL010-FTL013 were deleted because every
hazard they named fails loudly when the code *runs*.  This file seeds
each of those hazards into a scheme as a small subclass - modelled on
the deleted rules' own known-bad fixtures - replays one seeded random
read/write trace through it with the simulator, every read checked by
content against ``SanitizedFTL``'s host-state model, on the plain device
and again on flashsan's validating device, and asserts the specific
report that stops it.  The unmodified schemes are clean under the very
same replay.
"""

import json
import sys
import warnings

import pytest

from repro.checks import (
    SanitizedFTL,
    SanitizedNandFlash,
    SanitizerViolation,
    ViolationKind,
    audit_ftl,
)
from repro.core import LazyConfig, LazyFTL
from repro.flash import (
    EraseError,
    FlashError,
    FlashGeometry,
    NandFlash,
    ProgramError,
    RedundantInvalidateWarning,
)
from repro.ftl import PageFTL
from repro.ftl.pool import OutOfBlocksError
from repro.sim import Simulator
from repro.traces import uniform_random

GEOMETRY = FlashGeometry(num_blocks=32, pages_per_block=8, page_size=64)
LOGICAL_PAGES = 96
TRACE = uniform_random(1500, LOGICAL_PAGES, write_ratio=0.7, seed=7)


class KeepsStaleCopy(PageFTL):
    """FTL010-A, eager form: the map is rewritten and the old copy is
    never invalidated - it stays VALID forever."""

    def write(self, lpn, data=None):
        self._map.raw[lpn] = -1  # the old ppn is forgotten, not retired
        return super().write(lpn, data)


class LeaksDeferredCopy(LazyFTL):
    """FTL010-A, lazy form: a GMT commit displaces the old addresses and
    the deferred invalidation never happens - the per-run hook retires
    none of a commit run's displaced copies."""

    def _retire_displaced(self, displaced):
        pass


class _BuggyEighthWrite(PageFTL):
    """Every eighth logical page goes through ``buggy_write(lpn, ppn)``,
    ``ppn`` being the frontier page a real write would program next."""

    def write(self, lpn, data=None):
        pbn = self._active.take(self.gc_free_threshold) if lpn % 8 == 0 \
            else None
        if pbn is None:
            return super().write(lpn, data)
        self.buggy_write(lpn, self._frontier(pbn))
        return 0.0


class MapsUnprogrammedPage(_BuggyEighthWrite):
    """FTL010-B: the frontier ppn is mapped without the program that
    should have filled it."""

    def buggy_write(self, lpn, ppn):
        old = self._map.raw[lpn]
        if old >= 0:
            self.flash.invalidate_page(old)
        self._map.raw[lpn] = ppn


class ErasesWithoutRelocating(PageFTL):
    """FTL010-C: the GC pass moves nothing, then erases the victim."""

    def _collect_data_block(self, victim):
        return 0.0


class SwallowsTornWrite(_BuggyEighthWrite):
    """FTL011: the map is stored first, the statement after it raises,
    and the handler swallows - the caller carries on with a torn map."""

    def buggy_write(self, lpn, ppn):
        try:
            self._map.raw[lpn] = ppn
            raise ProgramError("the program after the map store fails")
        except FlashError:
            pass


class PicksVictimInHashOrder(PageFTL):
    """FTL012: the GC victim is whichever reclaimable block a str-keyed
    set yields first.  Any victim with slack is a *correct* choice, so
    nothing raises - only the statistics move with the hash seed."""

    def __init__(self, flash, logical_pages):
        super().__init__(flash, logical_pages)
        self._gc.select = self._select

    def _select(self):
        valid = self.flash.valid_count
        labels = {f"block-{pbn}" for pbn in self._gc.blocks
                  if valid[pbn] < self._pages_per_block}
        for label in labels:
            return int(label[len("block-"):])
        return None


def build(cls, sanitized):
    """``cls`` behind ``SanitizedFTL``, on flashsan's validating device
    when ``sanitized``, else on the plain one."""
    flash = (SanitizedNandFlash if sanitized else NandFlash)(GEOMETRY)
    if issubclass(cls, LazyFTL):
        ftl = cls(flash, LOGICAL_PAGES,
                  LazyConfig(uba_blocks=2, cba_blocks=2))
    else:
        ftl = cls(flash, LOGICAL_PAGES)
    return SanitizedFTL(ftl)


def replay(ftl):
    """The seeded loop: the simulator's replay with every read checked,
    a double invalidate an error (ftlbench counts them the same way),
    then every page read back and the full audit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RedundantInvalidateWarning)
        Simulator(ftl).run(TRACE)
    ftl.sweep()
    return ftl.assert_clean()


#: seeded scheme -> (what stops it on the plain device, on flashsan's).
#: An exception type is raised as is; a ViolationKind arrives in a
#: SanitizerViolation.
SEEDED = {
    KeepsStaleCopy: (OutOfBlocksError, OutOfBlocksError),
    LeaksDeferredCopy: (ViolationKind.SHADOW_MISMATCH,
                        ViolationKind.SHADOW_MISMATCH),
    MapsUnprogrammedPage: (RedundantInvalidateWarning,
                           ViolationKind.DOUBLE_INVALIDATE),
    ErasesWithoutRelocating: (EraseError, ViolationKind.ERASE_WITH_VALID),
    SwallowsTornWrite: (ViolationKind.SHADOW_MISMATCH,
                        ViolationKind.SHADOW_MISMATCH),
}


@pytest.mark.parametrize("sanitized", (False, True),
                         ids=("plain", "flashsan"))
class TestSeededHazardsFailLoudly:
    @pytest.mark.parametrize("scheme", (PageFTL, LazyFTL),
                             ids=lambda cls: cls.__name__)
    def test_unmodified_scheme_is_clean(self, scheme, sanitized):
        report = replay(build(scheme, sanitized))
        assert report.clean and report.checks_run > 0

    @pytest.mark.parametrize("seeded", SEEDED, ids=lambda cls: cls.__name__)
    def test_seeded_bug_is_reported(self, seeded, sanitized):
        """Stands in for FTL010-A (both forms), FTL010-B, FTL010-C and
        FTL011: see each seeded class's docstring."""
        expected = SEEDED[seeded][sanitized]
        ftl = build(seeded, sanitized)
        if isinstance(expected, ViolationKind):
            with pytest.raises(SanitizerViolation) as caught:
                replay(ftl)
            assert caught.value.violation.kind is expected
        else:
            with pytest.raises(expected):
                replay(ftl)


@pytest.mark.parametrize("seeded", (LeaksDeferredCopy, SwallowsTornWrite),
                         ids=lambda cls: cls.__name__)
def test_the_simulator_replay_checks_content(seeded):
    """The simulator sends no payload; ``SanitizedFTL`` writes version
    tokens in its place, so a read that returns another write's data is
    caught in the replay itself - before GC runs out of blocks on the
    leaked copies, before the torn map's double invalidate."""
    ftl = build(seeded, sanitized=True)
    with pytest.raises(SanitizerViolation) as caught:
        Simulator(ftl).run(TRACE)
    assert caught.value.violation.kind is ViolationKind.SHADOW_MISMATCH


def test_stale_copies_are_multi_owner_to_the_audit():
    """FTL010-A again: long before the device fills up, the audit names
    the copy that was never invalidated."""
    ftl = build(KeepsStaleCopy, sanitized=False)
    for lpn in (3, 4, 3):
        ftl.write(lpn, lpn)
    [finding] = audit_ftl(ftl.wrapped).violations
    assert finding.kind is ViolationKind.MULTI_OWNER
    assert finding.lpn == 3


def stats_digests():
    """``{scheme: statistics}`` after the seeded replay (run as a script
    under a chosen ``PYTHONHASHSEED`` by the test below)."""
    digests = {}
    for cls in (PageFTL, PicksVictimInHashOrder):
        ftl = build(cls, sanitized=False)
        replay(ftl)
        digests[cls.__name__] = [ftl.stats.gc_runs, ftl.stats.gc_page_copies,
                                 ftl.flash.stats.block_erases]
    return digests


def test_hash_order_reaches_the_statistics_only_under_another_seed(
        json_under_hash_seed):
    """Stands in for FTL012.  Set order cannot fail *in* a run; it is
    caught by running twice: the two-seed golden gate
    (tests/test_golden_stats.py) compares both runs with one snapshot,
    which a hash-ordered pick cannot satisfy.  The sets the schemes
    iterate hold ints (block and page numbers), whose order no hash
    seed moves - the control."""
    one, other = (json_under_hash_seed(seed, __file__)
                  for seed in ("1", "4242"))
    assert one["PageFTL"] == other["PageFTL"]
    assert one["PicksVictimInHashOrder"] != other["PicksVictimInHashOrder"]


if __name__ == "__main__":
    json.dump(stats_digests(), sys.stdout)
