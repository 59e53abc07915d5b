"""Every FTL scheme must pass the full conformance suite under flashsan.

This is the sanitizer's headline guarantee: the behavioural suite (heavy
overwrite pressure, GC churn, hot-spot hammering) runs with every raw
NAND operation validated and every host read checked against the
host-state model, and
*zero* violations are tolerated.  A scheme that skips an erase, programs
out of order, double-invalidates, or leaks a stale mapping fails here
with a structured report instead of silently corrupting a benchmark.

A second layer runs the full-state mapping audit (ownership, OOB reverse
mappings, per-scheme UMT/GMT/CMT consistency) after sustained random
overwrite pressure on every scheme.

The factories mirror the per-scheme conformance modules (same geometry,
same constructor options) so a failure here isolates the sanitizer as
the only new variable.
"""

import random

import pytest

from repro.checks import SanitizedFTL
from repro.core import LazyConfig, LazyFTL
from repro.ftl import (
    BastFTL,
    DftlFTL,
    FastFTL,
    PageFTL,
    SuperblockFTL,
)
from repro.sim import SCHEMES, standard_setup

from .ftl_conformance import FTLConformance


class _SanitizedConformance(FTLConformance):
    """Conformance suite with the sanitizer armed, plus a closing audit
    of the full mapping state after sustained random pressure."""

    SANITIZE = True

    def test_audit_clean_after_random_pressure(self):
        ftl = self.new_ftl()
        assert isinstance(ftl, SanitizedFTL)
        rng = random.Random(1234)
        for i in range(self.LOGICAL_PAGES * 5):
            ftl.write(rng.randrange(self.LOGICAL_PAGES), i)
        report = ftl.assert_clean()
        assert report.clean
        assert report.checks_run > 0


class TestSanitizedBast(_SanitizedConformance):
    def make_ftl(self, flash):
        return BastFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       num_log_blocks=6)


class TestSanitizedFast(_SanitizedConformance):
    def make_ftl(self, flash):
        return FastFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       num_rw_log_blocks=6)


class TestSanitizedSuperblock(_SanitizedConformance):
    def make_ftl(self, flash):
        return SuperblockFTL(flash, logical_pages=self.LOGICAL_PAGES,
                             blocks_per_superblock=4,
                             spare_per_superblock=1)


class TestSanitizedDftl(_SanitizedConformance):
    def make_ftl(self, flash):
        return DftlFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       cmt_entries=64)


class TestSanitizedDftlTinyCache(_SanitizedConformance):
    def make_ftl(self, flash):
        return DftlFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       cmt_entries=4)


class TestSanitizedLazyFTL(_SanitizedConformance):
    def make_ftl(self, flash):
        return LazyFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       config=LazyConfig(uba_blocks=4, cba_blocks=2,
                                         gc_free_threshold=3))

    def test_valid_page_conservation(self):
        """Override (as in the unsanitized LazyFTL suite): deferred
        invalidation keeps stale copies valid until a flush commits the
        UMT - the sanitizer's audit checks each one is UMT-tracked."""
        ftl = self.new_ftl()
        rng = random.Random(9)
        live = set()
        for i in range(self.LOGICAL_PAGES * 4):
            lpn = rng.randrange(self.LOGICAL_PAGES)
            ftl.write(lpn, i)
            live.add(lpn)
        assert self.count_valid_data_pages(ftl) >= len(live)
        ftl.flush()
        assert self.count_valid_data_pages(ftl) == len(live)
        ftl.assert_clean()


class TestSanitizedPageFTL(_SanitizedConformance):
    def make_ftl(self, flash):
        return PageFTL(flash, logical_pages=self.LOGICAL_PAGES)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_standard_setup_sanitized_audit(scheme):
    """The factory's sanitize knob yields a clean audit for every scheme
    on the standard small device after mixed write/trim pressure."""
    flash, ftl, logical_pages = standard_setup(
        scheme, num_blocks=96, pages_per_block=16, page_size=2048,
        logical_fraction=0.7, sanitize=True,
    )
    assert isinstance(ftl, SanitizedFTL)
    rng = random.Random(99)
    for i in range(logical_pages * 3):
        lpn = rng.randrange(logical_pages)
        if i % 17 == 0:
            ftl.trim(lpn)
        else:
            ftl.write(lpn, (lpn, i))
    report = ftl.assert_clean()
    assert report.clean
