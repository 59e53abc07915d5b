"""flashsan: a validating NAND device + FTL wrapper (runtime sanitizer).

Two cooperating layers, both opt-in and zero-cost when unused:

* :class:`SanitizedNandFlash` - a drop-in :class:`~repro.flash.chip.NandFlash`
  that reports **NAND legality**: every refusal of the chip that names a
  rule (erase-before-program, in-block sequential order, no reads of
  never-programmed pages, no ops on retired blocks, no erase of live
  data), plus the redundant invalidates the chip tolerates.  It remembers
  the recent op history so every finding carries a "how did we get here"
  tail.

* :class:`SanitizedFTL` - a transparent wrapper around any
  :class:`~repro.ftl.base.FlashTranslationLayer` that drives the
  **host-state model** (:class:`~repro.checks.shadow.ShadowModel`: host
  writes and trims recorded, every host read checked by content) and
  exposes :meth:`SanitizedFTL.audit`, a full-state mapping audit (see
  :mod:`repro.checks.auditors`).

Violations surface as structured :class:`~repro.checks.report.Violation`
reports, raised as :class:`~repro.checks.report.SanitizerViolation` in
``raise`` mode (the default) or collected on ``.violations`` in ``record``
mode.  The conformance suite runs every FTL scheme under both layers; the
CLI enables them with ``--sanitize``.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Optional, Sequence, Tuple

from ..flash.chip import NandFlash
from ..flash.errors import FlashError
from ..flash.oob import OOBData
from ..flash.page import INVALID
from ..ftl.base import BeginPage, EndPage, FlashTranslationLayer, ReadResult
from .report import (
    AuditReport,
    OpHistory,
    SanitizerViolation,
    Violation,
    ViolationKind,
)
from .shadow import ShadowModel

#: Accepted ``on_violation`` policies.
MODES = ("raise", "record")


class SanitizedNandFlash(NandFlash):
    """A NandFlash that reports every NAND rule a raw operation breaks.

    The chip states each rule once and refuses a breach with a flash
    error that names it (:attr:`~repro.flash.errors.FlashError.rule`).
    The sanitizer calls every op through ``super()`` and files such a
    refusal as a structured :class:`Violation` carrying the scheme name
    and the recent op history.  The one contract it checks itself is the
    one the chip tolerates: a redundant invalidate, which the chip only
    counts and warns about.

    Takes :class:`~repro.flash.chip.NandFlash`'s arguments, plus:

    Args:
        on_violation: ``"raise"`` (default) aborts at the first finding
            with :class:`SanitizerViolation`; ``"record"`` collects
            findings on :attr:`violations` and re-raises the chip's error.
        history: How many recent raw ops each report carries.
    """

    def __init__(self, *args: Any, on_violation: str = "raise",
                 history: int = 16, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if on_violation not in MODES:
            raise ValueError(f"on_violation must be one of {MODES}")
        self.on_violation = on_violation
        self.history = OpHistory(history)
        self.violations: list = []
        #: Scheme name stamped into reports (set by SanitizedFTL).
        self.scheme: Optional[str] = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, kind: ViolationKind, message: str,
               lpn: Optional[int] = None, ppn: Optional[int] = None,
               pbn: Optional[int] = None) -> None:
        """File one finding according to the ``on_violation`` policy."""
        violation = Violation(kind, message, self.scheme, lpn, ppn, pbn,
                              self.history.tail())
        if self.on_violation == "raise":
            raise SanitizerViolation(violation)
        self.violations.append(violation)

    def _call(self, op: Callable[..., Any], *args: Any,
              ppn: Optional[int] = None, pbn: Optional[int] = None,
              lpn: Optional[int] = None) -> Any:
        """``op(*args)``, reporting a refusal that names a NAND rule
        (the chip's error propagates in ``record`` mode)."""
        try:
            return op(*args)
        except FlashError as err:
            if err.rule is not None:
                self.report(ViolationKind(err.rule), str(err),
                            lpn=lpn, ppn=ppn, pbn=pbn)
            raise

    # ------------------------------------------------------------------
    # Audited raw operations
    # ------------------------------------------------------------------
    def read_page(self, ppn: int) -> Tuple[Any, float]:
        pbn, offset = self.geometry.split_ppn(ppn)
        result = self._call(super().read_page, ppn, ppn=ppn, pbn=pbn)
        self.history.record("read", pbn, offset, self._owner(ppn))
        return result

    def probe_page(self, ppn: int) -> Tuple[Optional[OOBData], float]:
        # Probing erased pages is the *sanctioned* way to classify blocks
        # during recovery scans: the chip refuses nothing here.
        pbn, offset = self.geometry.split_ppn(ppn)
        result = super().probe_page(ppn)
        self.history.record("probe", pbn, offset,
                            result[0].lpn if result[0] is not None else None)
        return result

    def program_page(
        self, ppn: int, data: Any, oob: Optional[OOBData] = None
    ) -> float:
        pbn, offset = self.geometry.split_ppn(ppn)
        lpn = oob.lpn if oob is not None else None
        latency = self._call(super().program_page, ppn, data, oob,
                             ppn=ppn, pbn=pbn, lpn=lpn)
        self.history.record("program", pbn, offset, lpn)
        return latency

    def erase_block(self, pbn: int) -> float:
        self.geometry.check_block(pbn)
        latency = self._call(super().erase_block, pbn, pbn=pbn)
        self.history.record("erase", pbn)
        return latency

    def invalidate_page(self, ppn: int) -> None:
        pbn, offset = self.geometry.split_ppn(ppn)
        owner = self._owner(ppn)
        if self.page_states[ppn] == INVALID:
            self.report(
                ViolationKind.DOUBLE_INVALIDATE,
                f"double invalidate of page (block {pbn}, offset {offset}"
                f", lpn={owner}) - the owner was already retired once",
                ppn=ppn, pbn=pbn,
            )
        self._call(super().invalidate_page, ppn, ppn=ppn, pbn=pbn)
        self.history.record("invalidate", pbn, offset, owner)

    def takes_runs(self) -> bool:
        # No bulk path: ``program_run`` / ``invalidate_run`` then call the
        # audited ops above once per page (audit and history record for
        # each), and FTLs move pages one at a time.
        return False


def audit_latency(recorder: Any) -> list:
    """Check the per-op latency-decomposition invariant of a recorder.

    Every host op's charged latency must cover the flash time observed
    during it (``sum(cause buckets) <= dur_us`` within tolerance; the
    positive remainder is the explicit ``unattributed`` bucket).  An op
    that observed *more* flash time than it was charged means a missed
    fence or a mis-charging scheme - each such scheme yields one
    :class:`Violation` of kind :data:`ViolationKind.LATENCY_DRIFT`.
    """
    violations = []
    for scheme, verdict in recorder.invariants().items():
        if verdict["violations"]:
            violations.append(Violation(
                kind=ViolationKind.LATENCY_DRIFT,
                message=(
                    f"{verdict['violations']} of {verdict['checked_ops']} "
                    "host ops observed more flash time than they were "
                    "charged (max residual "
                    f"{verdict['max_residual_us']:.3g} us) - the per-op "
                    "cause decomposition does not sum to the op latency"
                ),
                scheme=scheme or None,
            ))
    return violations


class SanitizedFTL:
    """Transparent FTL wrapper adding the host-level sanitizer checks.

    Delegates every attribute to the wrapped scheme and drives
    :attr:`model` (a :class:`~repro.checks.shadow.ShadowModel`) through
    the host interface: every write and trim is recorded, every read is
    checked against it, and :meth:`sweep` reads the whole logical space
    back.  :meth:`audit` checks the full-state mapping invariants.
    Drop-in for the simulator, the conformance suite, the crash checker
    and the CLI.
    """

    def __init__(
        self,
        ftl: FlashTranslationLayer,
        on_violation: str = "raise",
    ):
        if on_violation not in MODES:
            raise ValueError(f"on_violation must be one of {MODES}")
        self._ftl = ftl
        self.on_violation = on_violation
        #: What each lpn may read back: the one host-state model.
        self.model = ShadowModel(ftl.logical_pages)
        self._versions = count()
        self.violations: list = []
        if isinstance(ftl.flash, SanitizedNandFlash):
            ftl.flash.scheme = ftl.name

    # ------------------------------------------------------------------
    # Host interface (audited)
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> ReadResult:
        result = self._ftl.read(lpn)
        self._check(lpn, result[0])
        return result

    def write(self, lpn: int, data: Any = None) -> float:
        data = self._payload(lpn, data)
        self.model.begin("w", lpn, data)
        latency = self._ftl.write(lpn, data)
        self.model.commit()
        return latency

    # The run ops are spelled out: ``__getattr__`` would hand the wrapped
    # scheme's to the driver and every multi-page request would skip the
    # model.
    def read_run(self, lpn: int, n: int, begin_page: BeginPage = None,
                 end_page: EndPage = None) -> ReadResult:
        result = self._ftl.read_run(lpn, n, begin_page, end_page)
        for page, data in enumerate(result[0], lpn):
            self._check(page, data)
        return result

    def write_run(self, lpn: int, datas: Sequence[Any],
                  begin_page: BeginPage = None,
                  end_page: EndPage = None) -> float:
        datas = [self._payload(page, data)
                 for page, data in enumerate(datas, lpn)]
        model = self.model

        def page_written(is_write: bool, page: int, latency: float) -> None:
            # Per page, so a run that raises half way leaves the model at
            # the pages it completed.
            model.begin("w", page, datas[page - lpn])
            model.commit()
            if end_page is not None:
                end_page(is_write, page, latency)

        return self._ftl.write_run(lpn, datas, begin_page, page_written)

    def trim(self, lpn: int) -> float:
        self.model.begin("d", lpn, None)
        latency = self._ftl.trim(lpn)
        self.model.commit()
        return latency

    def sweep(self) -> None:
        """Read every logical page back against the model (the end of a
        replay: pages no request read again are checked too)."""
        for lpn in range(self._ftl.logical_pages):
            self.read(lpn)

    def _payload(self, lpn: int, data: Any) -> Any:
        """``data``, or a fresh ``(lpn, version)`` token when the host
        sends none, so a simulator replay's reads are checked by content.
        The payload moves no statistic."""
        return (lpn, next(self._versions)) if data is None else data

    def _check(self, lpn: int, data: Any) -> None:
        """Report a read the model does not allow."""
        error = self.model.check_read(lpn, data)
        if error is not None:
            self._report(Violation(
                kind=ViolationKind.SHADOW_MISMATCH,
                message=f"lpn {lpn}: {error}",
                scheme=self._ftl.name,
                lpn=lpn,
                history=self._flash_history(),
            ))

    # ------------------------------------------------------------------
    # Auditing
    # ------------------------------------------------------------------
    def audit(self) -> AuditReport:
        """Run the full-state mapping audit on the wrapped scheme.

        Side-effect free: inspects RAM tables and flash pages directly
        without issuing (or charging) device operations.  Includes any
        findings a ``record``-mode flash accumulated.  Raises
        :class:`SanitizerViolation` on the first finding in ``raise`` mode.
        """
        from .auditors import audit_ftl

        report = audit_ftl(self._ftl)
        flash = self._ftl.flash
        if isinstance(flash, SanitizedNandFlash) and flash.violations:
            report.violations.extend(flash.violations)
        report.violations.extend(self.violations)
        tracer = self._ftl.tracer
        if tracer is not None and tracer.latency is not None:
            # A traced run with a latency recorder also certifies the
            # per-op decomposition invariant as part of the audit.
            report.violations.extend(audit_latency(tracer.latency))
            report.checks_run += 1
        if self.on_violation == "raise" and report.violations:
            raise SanitizerViolation(report.violations[0])
        return report

    def assert_clean(self) -> AuditReport:
        """Audit and raise on any finding regardless of mode."""
        report = self.audit()
        if report.violations:
            raise SanitizerViolation(report.violations[0])
        return report

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def wrapped(self) -> FlashTranslationLayer:
        """The underlying scheme (for tests poking at internals)."""
        return self._ftl

    def _flash_history(self):
        flash = self._ftl.flash
        if isinstance(flash, SanitizedNandFlash):
            return flash.history.tail()
        return ()

    def _report(self, violation: Violation) -> None:
        if self.on_violation == "raise":
            raise SanitizerViolation(violation)
        self.violations.append(violation)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._ftl, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedFTL({self._ftl!r})"
