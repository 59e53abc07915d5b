"""ftlint: project-specific AST lint rules for the LazyFTL reproduction.

Rules (all suppressible per line with ``# ftlint: disable[=FTLxxx]``):

======  ==============================================================
FTL001  no wall-clock reads in core/ftl/flash/sim (virtual time only)
FTL002  no unseeded randomness in core/ftl/flash/sim
FTL003  device state arrays stored to only inside repro.flash
FTL004  span_start/span_end + push_cause/pop_cause pair per function
FTL005  no bare/overbroad except without re-raise
FTL006  no mutable default arguments
FTL007  logical->physical maps in core/ftl must be array-backed
FTL008  replay loops iterate trace columns, not request objects
FTL009  membership sets are built once, not per iteration
FTL010  page-lifecycle protocol holds along every path (flow)
FTL011  no torn mapping state behind swallowing excepts (flow)
FTL012  no set iteration where hash order can leak out (flow)
FTL013  hot loops free of closures/allocs/repeated lookups (flow)
======  ==============================================================

FTL001-FTL009 are single-node AST rules defined here; FTL010+ are the
CFG-based dataflow rules from :mod:`repro.checks.flow`, registered with
the same engine (same scoping and ``# ftlint: disable`` suppression).

Run via ``python tools/ftlint.py [paths...]`` or programmatically through
:func:`lint_source` / :func:`lint_paths`.
"""

from .base import FileContext, LintViolation, Rule
from .engine import (
    ALL_RULES,
    FLOW_RULE_IDS,
    lint_file,
    lint_paths,
    lint_source,
    scope_of,
)

__all__ = [
    "ALL_RULES",
    "FLOW_RULE_IDS",
    "FileContext",
    "LintViolation",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "scope_of",
]
