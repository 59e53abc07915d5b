"""Correctness tooling: the flashsan runtime sanitizer and ftlint linter.

Public surface:

* :class:`SanitizedNandFlash` / :class:`SanitizedFTL` - validating wrappers
  around the raw device and any FTL scheme (``flashsan``);
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

__all__ = [
    "audit_ftl",
    "audit_latency",
    "SanitizedFTL",
    "SanitizedNandFlash",
    "AuditReport",
    "OpHistory",
    "OpRecord",
    "SanitizerViolation",
    "Violation",
    "ViolationKind",
]
