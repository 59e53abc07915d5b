"""Scheme registry for the crash model checker.

Builds recovery-capable schemes on a deliberately tiny device (a few
thousand pages) so that exhaustively exploring *every* program/erase
boundary of a multi-thousand-op workload stays tractable, and provides the
per-scheme ``corrupt_one_entry`` hook behind the ``--mutate`` oracle
self-test: it deliberately damages one recovered mapping entry so a passing
run proves the oracle can actually see corruption, not merely that nothing
went wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ...core import LazyConfig, LazyFTL
from ...flash import FlashGeometry, NandFlash, UNIT_TIMING
from ...ftl import FlashTranslationLayer
from ...ftl.pure_page import PageFTL
from ...sim.factory import RECOVERABLE_SCHEMES, build_ftl


@dataclass(frozen=True)
class DeviceParams:
    """Geometry of the checker's device, picklable for worker fan-out.

    The defaults match the repo's small-device test convention: large
    enough that GC, staging-area conversion and checkpointing all fire
    within a few hundred ops, small enough that one crash case replays in
    milliseconds.
    """

    num_blocks: int = 40
    pages_per_block: int = 8
    page_size: int = 64
    logical_pages: int = 96
    channels: int = 1

    def key(self) -> str:
        """Stable textual form; round-trips through :meth:`parse`.

        Serial devices keep the historical ``NxPxS/L`` form so existing
        reproducer strings stay valid; a multi-channel device appends an
        ``@C`` suffix (its channel count).
        """
        base = (f"{self.num_blocks}x{self.pages_per_block}"
                f"x{self.page_size}/{self.logical_pages}")
        if self.channels != 1:
            base += f"@{self.channels}"
        return base

    @classmethod
    def parse(cls, text: str) -> "DeviceParams":
        text, _, channels = text.partition("@")
        geo, _, logical = text.partition("/")
        nb, pp, ps = geo.split("x")
        return cls(int(nb), int(pp), int(ps), int(logical),
                   int(channels or 1))


DEFAULT_DEVICE = DeviceParams()


def build_instance(
    scheme: str,
    device: DeviceParams = DEFAULT_DEVICE,
    checkpoint_interval: int = 48,
) -> Tuple[NandFlash, FlashTranslationLayer]:
    """Fresh (flash, ftl) pair for one crash case.

    Every worker rebuilds from scratch (FTL instances are not picklable),
    so identical parameters always yield bit-identical replays.
    """
    if scheme not in RECOVERABLE_SCHEMES:
        raise ValueError(
            f"scheme {scheme!r} is not crash-checkable; "
            f"choose from {RECOVERABLE_SCHEMES}"
        )
    geometry = FlashGeometry(
        num_blocks=device.num_blocks,
        pages_per_block=device.pages_per_block,
        page_size=device.page_size,
        channels=device.channels,
    )
    flash = NandFlash(geometry, timing=UNIT_TIMING)
    if scheme == "LazyFTL":
        config = LazyConfig(
            uba_blocks=4,
            cba_blocks=2,
            gc_free_threshold=3,
            checkpoint_interval=checkpoint_interval,
        )
        ftl = build_ftl("LazyFTL", flash, device.logical_pages,
                        config=config)
    else:
        ftl = build_ftl("ideal", flash, device.logical_pages,
                        gc_free_threshold=3)
    return flash, ftl


def _resolve_ppn(ftl: FlashTranslationLayer, lpn: int) -> Optional[int]:
    """Current physical location of ``lpn`` on a recovered instance."""
    if isinstance(ftl, LazyFTL):
        ppn = ftl._umt.ppn_at(lpn)
        if ppn >= 0:
            return ppn
        ppn, _ = ftl._maps.lookup(lpn)
        return ppn
    if isinstance(ftl, PageFTL):
        ppn = ftl._map.raw[lpn]
        return ppn if ppn >= 0 else None
    raise ValueError(f"cannot resolve mappings for {ftl.name!r}")


def corrupt_one_entry(
    ftl: FlashTranslationLayer,
    candidate_lpns: Sequence[int],
) -> Optional[str]:
    """Redirect one recovered mapping entry at another page's data.

    Picks the first pair of candidate lpns that map to distinct physical
    pages and rewires the first to read the second's data - exactly the
    damage a buggy recovery scan would cause.  Returns a description of
    the corruption, or None when no eligible pair exists (fewer than two
    mapped pages survived).
    """
    pairs = [
        (lpn, ppn)
        for lpn in candidate_lpns
        if (ppn := _resolve_ppn(ftl, lpn)) is not None
    ]
    for i, (victim, victim_ppn) in enumerate(pairs):
        for donor, donor_ppn in pairs[i + 1:]:
            if donor_ppn == victim_ppn:
                continue
            _redirect(ftl, victim, donor_ppn)
            return (f"redirected lpn {victim} (was ppn {victim_ppn}) at "
                    f"ppn {donor_ppn}, the data of lpn {donor}")
    return None


def _redirect(ftl: FlashTranslationLayer, lpn: int, wrong_ppn: int) -> None:
    if isinstance(ftl, LazyFTL):
        if ftl._umt.ppn_at(lpn) >= 0:
            ftl._umt.set(lpn, wrong_ppn)
            return
        maps = ftl._maps
        tvpn = maps.tvpn_of(lpn)
        tppn = maps.gtd.get(tvpn)
        assert tppn is not None, "resolved lpn must have a GMT page"
        ftl.flash.page_data[tppn][lpn % maps.entries_per_page] = wrong_ppn
        return
    assert isinstance(ftl, PageFTL)
    ftl._map.raw[lpn] = wrong_ppn
