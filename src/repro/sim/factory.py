"""Construction helpers: build a device + FTL pair by scheme name.

Benchmarks and examples go through this module so every scheme runs on an
identically configured device and overprovisioning story.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..core import LazyConfig, LazyFTL
from ..flash import FlashGeometry, NandFlash, SLC_TIMING, TimingModel
from ..ftl import (
    BastFTL,
    DftlFTL,
    FastFTL,
    FlashTranslationLayer,
    PageFTL,
    SuperblockFTL,
)

#: Scheme names accepted by :func:`build_ftl`, in the paper's
#: presentation order ("superblock" is an extra baseline beyond the
#: paper's evaluated four - see repro.ftl.superblock).
SCHEMES = ("BAST", "FAST", "superblock", "DFTL", "LazyFTL", "ideal")

#: Schemes that can rebuild themselves from flash-resident state after a
#: power loss: LazyFTL via checkpoints + bounded OOB scans (the paper's
#: basic recovery design) and the ideal page-mapping baseline via a full
#: OOB scan.  Everything else keeps mapping state that does not survive a
#: crash - :func:`recover_ftl` fails loudly for those instead of
#: returning a silently corrupted instance.
RECOVERABLE_SCHEMES = ("LazyFTL", "ideal")

#: Each of :data:`SCHEMES` by its lowercased name (:func:`build_ftl` is
#: case-insensitive).
_BUILDERS: Dict[str, Callable[..., FlashTranslationLayer]] = {
    "bast": BastFTL,
    "fast": FastFTL,
    "superblock": SuperblockFTL,
    "dftl": DftlFTL,
    "lazyftl": LazyFTL,
    "ideal": PageFTL,
}


class RecoveryUnsupportedError(RuntimeError):
    """The scheme has no crash-recovery design; its RAM state is gone."""


def build_ftl(
    scheme: str,
    flash: NandFlash,
    logical_pages: int,
    **options: Any,
) -> FlashTranslationLayer:
    """Instantiate a scheme by name on an existing device.

    Scheme-specific options are forwarded: ``num_log_blocks`` (BAST),
    ``num_rw_log_blocks`` (FAST), ``cmt_entries`` (DFTL), ``config``
    (LazyFTL), etc.  The chip's sequential-programming enforcement is
    aligned with the scheme's needs.
    """
    builder = _BUILDERS.get(scheme.lower())
    if builder is None:
        raise ValueError(
            f"unknown scheme {scheme!r}; choose from {SCHEMES}"
        )
    ftl = builder(flash, logical_pages, **options)
    flash.enforce_sequential = not ftl.requires_random_program
    return ftl


def standard_setup(
    scheme: str,
    num_blocks: int = 256,
    pages_per_block: int = 64,
    page_size: int = 2048,
    logical_fraction: float = 0.85,
    timing: TimingModel = SLC_TIMING,
    sanitize: bool = False,
    tracer: Any = None,
    channels: int = 1,
    **options: Any,
) -> Tuple[NandFlash, Any, int]:
    """Build a (flash, ftl, logical_pages) triple with shared defaults.

    ``logical_fraction`` fixes the exported capacity as a fraction of raw
    capacity (the rest is overprovisioning shared by all schemes); the
    LazyFTL anchor blocks are excluded for everyone so the usable space is
    identical across schemes.

    With ``sanitize=True`` the device is a validating
    :class:`~repro.checks.SanitizedNandFlash` and the returned FTL is
    wrapped in :class:`~repro.checks.SanitizedFTL` (every read checked
    by content against the host-state model + :meth:`audit`); any
    NAND-contract breach raises a
    structured :class:`~repro.checks.SanitizerViolation`.

    ``channels`` selects the device parallelism; with more than one
    channel the device overlaps commands per channel and
    striping-capable schemes (LazyFTL, DFTL, ideal) spread their
    frontier allocation across the channels.  On the default single
    channel the same device is serial and the same frontier code keeps
    one block open per area.

    A ``tracer`` (:class:`~repro.obs.Tracer`) is attached before the FTL
    is returned, so construction-time flash traffic and direct host calls
    are observable without going through the simulator.
    """
    if not 0.0 < logical_fraction < 1.0:
        raise ValueError("logical_fraction must be in (0, 1)")
    geometry = FlashGeometry(
        num_blocks=num_blocks,
        pages_per_block=pages_per_block,
        page_size=page_size,
        channels=channels,
    )
    if sanitize:
        from ..checks import SanitizedFTL, SanitizedNandFlash

        flash = SanitizedNandFlash(geometry, timing=timing)
    else:
        flash = NandFlash(geometry, timing=timing)
    logical_pages = int(geometry.total_pages * logical_fraction)
    ftl = build_ftl(scheme, flash, logical_pages, **options)
    if sanitize:
        ftl = SanitizedFTL(ftl)
    if tracer is not None:
        ftl.attach_tracer(tracer)
    return flash, ftl, logical_pages


def supports_recovery(ftl: FlashTranslationLayer) -> bool:
    """True when :func:`recover_ftl` can rebuild this scheme after a crash."""
    inner = getattr(ftl, "_ftl", ftl)  # unwrap a SanitizedFTL
    return isinstance(inner, (LazyFTL, PageFTL))


def recover_ftl(ftl: FlashTranslationLayer) -> FlashTranslationLayer:
    """Rebuild a crashed FTL's scheme from its (powered-off) device.

    The instance-based half of the recovery protocol: given the dead
    instance (its RAM state is considered lost - only ``flash``, the
    exported size and the construction-time configuration are consulted),
    power the device back on and run the scheme's recovery procedure.

    Returns a *new* FTL instance of the same scheme on the same device.
    Raises :class:`RecoveryUnsupportedError` for schemes with no recovery
    design (BAST/FAST/superblock/DFTL as implemented here keep
    log-block or cached-mapping state that is unrecoverable without
    scheme-side persistence) - a loud error instead of silent corruption.
    """
    inner = getattr(ftl, "_ftl", ftl)  # unwrap a SanitizedFTL
    if isinstance(inner, LazyFTL):
        from ..core.recovery import recover

        rebuilt, _ = recover(inner.flash, inner.logical_pages, inner.config)
        return rebuilt
    if isinstance(inner, PageFTL):
        return PageFTL.recover(inner.flash, inner.logical_pages,
                               inner.gc_free_threshold)
    raise RecoveryUnsupportedError(
        f"scheme {inner.name!r} has no crash-recovery design: its "
        "translation state lives only in RAM and cannot be rebuilt "
        f"from flash (recovery-capable schemes: {RECOVERABLE_SCHEMES})"
    )


def default_lazy_config(**overrides: Any) -> LazyConfig:
    """The LazyFTL configuration used by the headline benchmarks."""
    defaults = {"uba_blocks": 8, "cba_blocks": 4, "gc_free_threshold": 4}
    defaults.update(overrides)
    return LazyConfig(**defaults)
