"""Exception hierarchy for the raw NAND flash simulator.

All flash-level failures derive from :class:`FlashError` so callers can catch
device problems with a single ``except`` clause while still being able to
distinguish programming-constraint violations from simulated power failures.
A refusal that enforces a NAND rule names it in :attr:`FlashError.rule`.
"""

from __future__ import annotations

from typing import Optional


class FlashError(Exception):
    """Base class for every error raised by the flash device simulator.

    Attributes:
        rule: The NAND rule a legality refusal enforces, by its flashsan
            name (a :class:`repro.checks.report.ViolationKind` value, e.g.
            ``"program-without-erase"``); None for every other failure -
            range errors, power loss, a block wearing out.
    """

    def __init__(self, *args: object, rule: Optional[str] = None):
        super().__init__(*args)
        self.rule = rule


class OutOfRangeError(FlashError):
    """An address (physical page or block number) is outside the geometry."""

    def __init__(self, kind: str, value: int, limit: int):
        self.kind = kind
        self.value = value
        self.limit = limit
        super().__init__(f"{kind} {value} out of range [0, {limit})")


class ProgramError(FlashError):
    """A program (write) operation violated NAND constraints.

    Raised when programming a page that is not in the erased state
    (erase-before-write) or, when sequential programming is enforced,
    programming pages of a block out of order.
    """


class EraseError(FlashError):
    """An erase was refused: the block still holds VALID pages."""


class ReadError(FlashError):
    """A read touched a page whose content is undefined (never programmed)."""


class PowerLossError(FlashError):
    """The simulated device lost power.

    The operation that trips the fault does *not* take effect: NAND programs
    and erases are atomic at our modelling granularity, so a power loss lands
    *between* operations.  After this is raised the device refuses all
    further operations until :meth:`repro.flash.chip.NandFlash.power_on` is
    called, which models the post-crash reboot that recovery code runs under.
    """


class DeviceOffError(FlashError):
    """An operation was attempted while the device is powered off."""


class RedundantInvalidateWarning(UserWarning):
    """An already-stale page was invalidated again.

    Double invalidation is harmless to the device model (the page stays
    INVALID) but means the FTL's mapping bookkeeping retired the same
    physical copy twice - usually a sign two code paths believe they own
    the supersession.  The chip counts and warns; the flashsan sanitizer
    (:mod:`repro.checks`) upgrades it to a structured violation.
    """


class BadBlockError(FlashError):
    """A block wore out (erase failure) or was already marked bad.

    Raised by the erase that exhausts a block's endurance (no ``op``, no
    rule); the block is permanently retired and refuses all further
    programs and erases (``op`` names the refused one, and the rule is
    ``bad-block-op``).  The FTL is expected to catch the wear-out, drop
    the block from its accounting, and continue on the remaining capacity.
    """

    def __init__(self, pbn: int, erase_count: int,
                 op: Optional[str] = None):
        self.pbn = pbn
        self.erase_count = erase_count
        if op is None:
            super().__init__(
                f"block {pbn} is bad (wore out after {erase_count} erases)"
            )
        else:
            super().__init__(f"{op} of retired (bad) block {pbn}",
                             rule="bad-block-op")
