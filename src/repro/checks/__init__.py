"""Correctness tooling: the flashsan runtime sanitizer and ftlint linter.

Public surface:

* :class:`SanitizedNandFlash` / :class:`SanitizedFTL` - validating wrappers
  around the raw device and any FTL scheme (``flashsan``);
* :class:`ShadowModel` - the one model of host-visible state, which
  ``SanitizedFTL`` drives and the crash checker's oracle reads;
* :func:`audit_ftl` - side-effect-free full-state mapping audit;
* :class:`Violation` / :class:`SanitizerViolation` / :class:`AuditReport` -
  the structured report types every finding is delivered as;
* :mod:`repro.checks.lint` - the AST rule modules behind ``tools/ftlint.py``.

See docs/INTERNALS.md ("The invariant catalogue") for what each check
guards and which paper claim it backs.
"""

from .auditors import audit_ftl
from .flashsan import (
    SanitizedFTL,
    SanitizedNandFlash,
    audit_latency,
)
from .report import (
    AuditReport,
    OpHistory,
    OpRecord,
    SanitizerViolation,
    Violation,
    ViolationKind,
)
from .shadow import ShadowModel

__all__ = [
    "audit_ftl",
    "audit_latency",
    "SanitizedFTL",
    "SanitizedNandFlash",
    "ShadowModel",
    "AuditReport",
    "OpHistory",
    "OpRecord",
    "SanitizerViolation",
    "Violation",
    "ViolationKind",
]
