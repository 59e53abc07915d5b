"""Tests for runner option plumbing and scheme registry completeness."""

import pytest

from repro.flash import FlashGeometry, NandFlash
from repro.sim import (
    DEFAULT_OPTIONS,
    DeviceSpec,
    SCHEMES,
    build_ftl,
    dftl_parity_options,
    lazy_headline_options,
    run_scheme,
)
from repro.traces import uniform_random


class TestSchemeRegistry:
    def test_every_scheme_has_default_options(self):
        for scheme in SCHEMES:
            assert scheme in DEFAULT_OPTIONS

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_buildable(self, scheme):
        flash = NandFlash(FlashGeometry(num_blocks=128, pages_per_block=16,
                                        page_size=512))
        ftl = build_ftl(scheme, flash, logical_pages=1024)
        assert ftl.logical_pages == 1024

    def test_scheme_names_case_insensitive(self):
        flash = NandFlash(FlashGeometry(num_blocks=128, pages_per_block=16,
                                        page_size=512))
        ftl = build_ftl("lazyftl", flash, logical_pages=1024)
        assert ftl.name == "LazyFTL"


class TestLazyHeadlineOptions:
    def test_headline_size(self):
        cfg = lazy_headline_options(1024)["config"]
        assert cfg.uba_blocks == 32
        assert cfg.cba_blocks == 4

    def test_small_device_scaled_down(self):
        cfg = lazy_headline_options(64)["config"]
        assert 2 <= cfg.uba_blocks <= 8
        assert cfg.cba_blocks >= 2

    def test_never_below_minimums(self):
        cfg = lazy_headline_options(16)["config"]
        assert cfg.uba_blocks >= 2
        assert cfg.cba_blocks >= 2


class TestDftlParityOptions:
    @pytest.mark.parametrize("num_blocks,pages_per_block,entries", [
        (256, 64, 1280), (512, 64, 2304), (1024, 64, 2304),
        (2048, 64, 2304), (96, 16, 128)])
    def test_cmt_holds_what_the_umt_can(self, num_blocks, pages_per_block,
                                        entries):
        assert dftl_parity_options(num_blocks, pages_per_block) == \
            {"cmt_entries": entries}


class TestRunSchemeOptionPrecedence:
    DEVICE = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                        logical_fraction=0.6)

    def test_explicit_options_override_defaults(self):
        trace = uniform_random(100, 512, seed=0)
        result = run_scheme("DFTL", trace, device=self.DEVICE,
                            cmt_entries=17)
        # ram = cmt*8 + gtd; with 17 entries the cmt part is 136 bytes.
        assert result.ram_bytes < dftl_parity_options(
            self.DEVICE.num_blocks,
            self.DEVICE.pages_per_block)["cmt_entries"] * 8

    def test_dftl_cmt_at_ram_parity_unless_given(self):
        trace = uniform_random(200, 512, seed=0)
        derived = run_scheme("DFTL", trace, device=self.DEVICE)
        assert derived.ram_bytes == run_scheme(
            "DFTL", trace, device=self.DEVICE, cmt_entries=128).ram_bytes
        assert derived.ram_bytes < run_scheme(
            "DFTL", trace, device=self.DEVICE, cmt_entries=2304).ram_bytes

    def test_explicit_lazy_config_suppresses_headline_config(self):
        from repro.core import LazyConfig
        trace = uniform_random(100, 512, seed=0)
        config = LazyConfig(uba_blocks=2, cba_blocks=2, gc_free_threshold=3)
        result = run_scheme("LazyFTL", trace, device=self.DEVICE,
                            config=config)
        assert result.requests == 100

    @pytest.mark.parametrize("scheme", ["superblock"])
    def test_extra_baselines_run_end_to_end(self, scheme):
        trace = uniform_random(400, 512, seed=1)
        result = run_scheme(scheme, trace, device=self.DEVICE,
                            blocks_per_superblock=4, spare_per_superblock=1)
        assert result.mean_response_us > 0
