"""flashsan: a validating NAND device + FTL wrapper (runtime sanitizer).

Two cooperating layers, both opt-in and zero-cost when unused:

* :class:`SanitizedNandFlash` - a drop-in :class:`~repro.flash.chip.NandFlash`
  that checks **NAND legality** before every raw operation (erase-before-
  program, in-block sequential order, no reads of never-programmed pages,
  no ops on retired blocks, no redundant invalidates) and remembers the
  recent op history so every finding carries a "how did we get here" tail.

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
from typing import Any, Iterable, Optional, Sequence, Tuple

from ..flash.chip import NandFlash
from ..flash.geometry import FlashGeometry
from ..flash.oob import OOBData
from ..flash.page import FREE, INVALID, PageState
from ..flash.timing import SLC_TIMING, TimingModel
from ..ftl.base import BeginPage, EndPage, FlashTranslationLayer, HostResult
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
    """A NandFlash that audits every raw operation before performing it.

    The underlying chip already rejects most illegal operations with flash
    errors; the sanitizer's contribution is (a) catching them *before* any
    state changes, with a structured report and op history instead of a
    bare exception, (b) checking contracts the chip deliberately tolerates
    (redundant invalidates), and (c) carrying the scheme name so findings
    in a multi-scheme comparison are attributable.

    Args:
        on_violation: ``"raise"`` (default) aborts at the first finding;
            ``"record"`` collects findings on :attr:`violations` and lets
            the run continue (the chip may still raise its own error for
            the operation afterwards).
        history: How many recent raw ops each report carries.
    """

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: TimingModel = SLC_TIMING,
        enforce_sequential: bool = True,
        endurance: Optional[int] = None,
        initial_bad_blocks: Iterable[int] = (),
        on_violation: str = "raise",
        history: int = 16,
    ):
        super().__init__(geometry, timing, enforce_sequential, endurance,
                         initial_bad_blocks)
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
    def report(
        self,
        kind: ViolationKind,
        message: str,
        lpn: Optional[int] = None,
        ppn: Optional[int] = None,
        pbn: Optional[int] = None,
    ) -> Violation:
        """File one finding according to the ``on_violation`` policy."""
        violation = Violation(
            kind=kind,
            message=message,
            scheme=self.scheme,
            lpn=lpn,
            ppn=ppn,
            pbn=pbn,
            history=self.history.tail(),
        )
        if self.on_violation == "raise":
            raise SanitizerViolation(violation)
        self.violations.append(violation)
        return violation

    # ------------------------------------------------------------------
    # Audited raw operations
    # ------------------------------------------------------------------
    def read_page(self, ppn: int) -> Tuple[Any, Optional[OOBData], float]:
        pbn, offset = self.geometry.split_ppn(ppn)
        if self._powered and self.page_states[ppn] == FREE:
            self.report(
                ViolationKind.READ_UNWRITTEN,
                f"read of never-programmed/erased page "
                f"(block {pbn}, offset {offset})",
                ppn=ppn, pbn=pbn,
            )
        result = super().read_page(ppn)
        self.history.record("read", pbn, offset,
                            result[1].lpn if result[1] is not None else None)
        return result

    def probe_page(self, ppn: int) -> Tuple[Optional[OOBData], float]:
        # Probing erased pages is the *sanctioned* way to classify blocks
        # during recovery scans, so no free-page check here.
        pbn, offset = self.geometry.split_ppn(ppn)
        result = super().probe_page(ppn)
        self.history.record("probe", pbn, offset,
                            result[0].lpn if result[0] is not None else None)
        return result

    def program_page(
        self, ppn: int, data: Any, oob: Optional[OOBData] = None
    ) -> float:
        pbn, offset = self.geometry.split_ppn(ppn)
        if self._powered:
            if self.is_bad[pbn]:
                self.report(
                    ViolationKind.BAD_BLOCK_OP,
                    f"program on retired (bad) block {pbn}",
                    ppn=ppn, pbn=pbn,
                )
            state = self.page_states[ppn]
            if state != FREE:
                self.report(
                    ViolationKind.PROGRAM_WITHOUT_ERASE,
                    f"program of {PageState(state).name.lower()} page "
                    f"without erase (block {pbn}, offset {offset}, current "
                    f"owner lpn={self._owner(ppn)})",
                    ppn=ppn, pbn=pbn,
                    lpn=oob.lpn if oob is not None else None,
                )
            elif self.enforce_sequential and offset != self.write_ptr[pbn]:
                self.report(
                    ViolationKind.PROGRAM_OUT_OF_ORDER,
                    f"non-sequential program in block {pbn}: offset "
                    f"{offset}, write pointer at {self.write_ptr[pbn]}",
                    ppn=ppn, pbn=pbn,
                )
        latency = super().program_page(ppn, data, oob)
        self.history.record("program", pbn, offset,
                            oob.lpn if oob is not None else None)
        return latency

    def erase_block(self, pbn: int) -> float:
        self.geometry.check_block(pbn)
        if self._powered:
            if self.is_bad[pbn]:
                self.report(
                    ViolationKind.BAD_BLOCK_OP,
                    f"erase of retired (bad) block {pbn}",
                    pbn=pbn,
                )
            elif self.valid_count[pbn] > 0:
                owners = sorted(
                    self.page_oob[p].lpn
                    for p in self.valid_ppns(pbn)
                    if self.page_oob[p] is not None
                )[:8]
                self.report(
                    ViolationKind.ERASE_WITH_VALID,
                    f"erase of block {pbn} holding {self.valid_count[pbn]} "
                    f"valid page(s) (live lpns include {owners}) - data "
                    "must be relocated before the erase",
                    pbn=pbn,
                )
        latency = super().erase_block(pbn)
        self.history.record("erase", pbn)
        return latency

    def invalidate_page(self, ppn: int) -> None:
        pbn, offset = self.geometry.split_ppn(ppn)
        state = self.page_states[ppn]
        owner = self._owner(ppn)
        if state == FREE:
            self.report(
                ViolationKind.INVALIDATE_UNWRITTEN,
                f"invalidate of never-programmed/erased page "
                f"(block {pbn}, offset {offset})",
                ppn=ppn, pbn=pbn,
            )
        elif state == INVALID:
            self.report(
                ViolationKind.DOUBLE_INVALIDATE,
                f"double invalidate of page (block {pbn}, offset {offset}"
                f", lpn={owner}) - the owner was already retired once",
                ppn=ppn, pbn=pbn,
            )
        super().invalidate_page(ppn)
        self.history.record("invalidate", pbn, offset, owner)

    def takes_runs(self) -> bool:
        # No bulk path: ``program_run`` / ``invalidate_run`` then call the
        # audited ops above once per page (audit and history record for
        # each), and FTLs move pages one at a time.
        return False

    def _owner(self, ppn: int) -> Optional[int]:
        """lpn recorded in the page's OOB, if any (for report text)."""
        oob = self.page_oob[ppn]
        return oob.lpn if oob is not None else None


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
    def read(self, lpn: int) -> HostResult:
        result = self._ftl.read(lpn)
        self._check(lpn, result.data)
        return result

    def write(self, lpn: int, data: Any = None) -> HostResult:
        data = self._payload(lpn, data)
        self.model.begin("w", lpn, data)
        result = self._ftl.write(lpn, data)
        self.model.commit()
        return result

    # The run ops are spelled out: ``__getattr__`` would hand the wrapped
    # scheme's to the driver and every multi-page request would skip the
    # model.
    def read_run(self, lpn: int, n: int, begin_page: BeginPage = None,
                 end_page: EndPage = None) -> HostResult:
        result = self._ftl.read_run(lpn, n, begin_page, end_page)
        for page, data in enumerate(result.data, lpn):
            self._check(page, data)
        return result

    def write_run(self, lpn: int, datas: Sequence[Any],
                  begin_page: BeginPage = None,
                  end_page: EndPage = None) -> HostResult:
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

    def trim(self, lpn: int) -> HostResult:
        self.model.begin("d", lpn, None)
        result = self._ftl.trim(lpn)
        self.model.commit()
        return result

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
