"""ftlint: project-specific AST lint rules for the LazyFTL reproduction.

Six syntactic rules, each for a hazard that is *silent* when the code
runs (all suppressible per line with ``# ftlint: disable[=FTLxxx]``):

======  ==============================================================
FTL001  no wall-clock reads in core/ftl/flash/sim (virtual time only)
FTL002  no unseeded randomness in core/ftl/flash/sim
FTL003  device state arrays stored to only inside repro.flash
FTL004  span_start/span_end + push_cause/pop_cause pair per function
FTL005  no bare/overbroad except without re-raise
FTL006  no mutable default arguments
======  ==============================================================

A hazard that raises, trips flashsan, fails ``audit_ftl``, breaks a
golden digest or moves an ftlbench metric is checked there, exactly,
and has no rule here (docs/INTERNALS.md, "The hazard ledger").

Run via ``python tools/ftlint.py [paths...]`` or programmatically through
:func:`lint_source` / :func:`lint_paths`.
"""

from .base import FileContext, LintViolation, Rule
from .engine import (
    ALL_RULES,
    lint_file,
    lint_paths,
    lint_source,
    scope_of,
)

__all__ = [
    "ALL_RULES",
    "FileContext",
    "LintViolation",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "scope_of",
]
