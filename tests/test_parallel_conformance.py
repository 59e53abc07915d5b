"""Geometry-parameterized conformance sweep for striping-capable schemes.

Runs the full :class:`~tests.ftl_conformance.FTLConformance` contract -
including the mid-trace POWER_CYCLE recovery test - for every scheme that
stripes its frontier allocation (LazyFTL, the ideal page FTL, DFTL)
across three device geometries:

* one channel - the serial baseline (every frontier one way wide; must
  behave exactly like the historical suites),
* two channels - the smallest striped configuration,
* eight channels (the ``4x2`` classes) - more units than the frontier
  stripes ways (MAX_STRIPE_WAYS = 4), so rotation wraps and
  ``allocate_on`` placement hints matter.

One sanitized (flashsan) variant per scheme runs the same contract under
full per-op auditing on the widest geometry, composing the sanitizer
with the device's per-unit overlap timing.
"""

import random

from repro.core import LazyConfig, LazyFTL
from repro.flash import FlashGeometry
from repro.ftl.dftl import DftlFTL
from repro.ftl.pure_page import PageFTL

from .ftl_conformance import FTLConformance

GEO_SERIAL = FlashGeometry(num_blocks=48, pages_per_block=16,
                           page_size=2048)
GEO_2CH = FlashGeometry(num_blocks=48, pages_per_block=16,
                        page_size=2048, channels=2)
GEO_8CH = FlashGeometry(num_blocks=48, pages_per_block=16,
                        page_size=2048, channels=8)


class _LazyScheme:
    def make_ftl(self, flash):
        return LazyFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       config=LazyConfig(uba_blocks=4, cba_blocks=2,
                                         gc_free_threshold=3))

    def test_valid_page_conservation(self):
        """Override: LazyFTL defers invalidation, so exact conservation
        holds only after a flush commits the whole UMT."""
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


class _IdealScheme:
    def make_ftl(self, flash):
        return PageFTL(flash, logical_pages=self.LOGICAL_PAGES)


class _DftlScheme:
    def make_ftl(self, flash):
        return DftlFTL(flash, logical_pages=self.LOGICAL_PAGES,
                       cmt_entries=64)


class TestLazyFTLSerial(_LazyScheme, FTLConformance):
    GEOMETRY = GEO_SERIAL


class TestLazyFTL2Ch(_LazyScheme, FTLConformance):
    GEOMETRY = GEO_2CH


class TestLazyFTL4x2(_LazyScheme, FTLConformance):
    GEOMETRY = GEO_8CH


class TestIdealSerial(_IdealScheme, FTLConformance):
    GEOMETRY = GEO_SERIAL


class TestIdeal2Ch(_IdealScheme, FTLConformance):
    GEOMETRY = GEO_2CH


class TestIdeal4x2(_IdealScheme, FTLConformance):
    GEOMETRY = GEO_8CH


class TestDftlSerial(_DftlScheme, FTLConformance):
    GEOMETRY = GEO_SERIAL


class TestDftl2Ch(_DftlScheme, FTLConformance):
    GEOMETRY = GEO_2CH


class TestDftl4x2(_DftlScheme, FTLConformance):
    GEOMETRY = GEO_8CH


class TestSanitizedLazyFTL4x2(_LazyScheme, FTLConformance):
    GEOMETRY = GEO_8CH
    SANITIZE = True

    def test_valid_page_conservation(self):
        super().test_valid_page_conservation()
        self.last_ftl.assert_clean()

    def new_ftl(self, **device_kwargs):
        self.last_ftl = super().new_ftl(**device_kwargs)
        return self.last_ftl


class TestSanitizedIdeal4x2(_IdealScheme, FTLConformance):
    GEOMETRY = GEO_8CH
    SANITIZE = True


class TestSanitizedDftl4x2(_DftlScheme, FTLConformance):
    GEOMETRY = GEO_8CH
    SANITIZE = True
