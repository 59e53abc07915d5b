"""ftlint core types: rules, violations, and the per-file context.

A rule is an :class:`ast.NodeVisitor` subclass with an ``RULE_ID``/
``MESSAGE`` header and a ``SCOPES`` declaration naming the top-level
``repro`` sub-packages it applies to (``None`` means every file).  The
engine instantiates one visitor per (rule, file) pair and collects the
:class:`LintViolation` objects it emits, so rules stay stateless across
files and trivially unit-testable on source snippets.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class LintViolation:
    """One linter finding, formatted ``path:line:col: RULE message``."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """What a rule knows about the file it is visiting."""

    path: str                    #: path as given on the command line
    scope: Optional[str]         #: repro sub-package ("core", "ftl", ...)
    source_lines: Tuple[str, ...]  #: raw lines, for suppression comments

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True when the line carries ``# ftlint: disable[=RULE]``."""
        if not 1 <= line <= len(self.source_lines):
            return False
        text = self.source_lines[line - 1]
        marker = text.find("# ftlint: disable")
        if marker < 0:
            return False
        directive = text[marker + len("# ftlint: disable"):].strip()
        if not directive.startswith("="):
            return True  # bare disable: every rule
        named = directive[1:].split()[0] if directive[1:].split() else ""
        return rule_id in {r.strip() for r in named.split(",")}


class Rule(ast.NodeVisitor):
    """Base class for ftlint rules (one instance per file visited).

    Subclasses set :attr:`RULE_ID`, :attr:`MESSAGE` (a summary used by
    ``--list-rules``), and :attr:`SCOPES` - the repro sub-packages the
    rule patrols (``None`` = all files, including files outside
    ``src/repro``).  Call :meth:`report` from visit methods.
    """

    RULE_ID: str = ""
    MESSAGE: str = ""
    #: Sub-packages of repro this rule applies to; None means everywhere.
    SCOPES: Optional[FrozenSet[str]] = None

    def __init__(self, context: FileContext):
        self.context = context
        self.violations: List[LintViolation] = []

    @classmethod
    def applies_to(cls, scope: Optional[str]) -> bool:
        if cls.SCOPES is None:
            return True
        return scope is not None and scope in cls.SCOPES

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self.context.is_suppressed(line, self.RULE_ID):
            return
        self.violations.append(
            LintViolation(
                rule_id=self.RULE_ID,
                message=message,
                path=self.context.path,
                line=line,
                col=getattr(node, "col_offset", 0),
            )
        )

    def run(self, tree: ast.AST) -> List[LintViolation]:
        self.visit(tree)
        return self.violations
