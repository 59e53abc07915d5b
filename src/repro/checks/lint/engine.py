"""ftlint engine: file discovery, scope detection, rule dispatch.

Scope is the first package component after ``src/repro`` (so
``src/repro/ftl/dftl.py`` has scope ``"ftl"``); files outside a repro
tree have scope ``None`` and only the scope-less rules apply.  Inline
suppression: ``# ftlint: disable`` silences every rule on that line,
``# ftlint: disable=FTL001,FTL004`` only the named ones.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Type

from .base import FileContext, LintViolation, Rule
from .block_mutation import BlockMutationRule
from .defaults import MutableDefaultRule
from .excepts import ExceptHygieneRule
from .randomness import UnseededRandomRule
from .spans import SpanBalanceRule
from .wallclock import WallClockRule

#: All registered rules, in report order.
ALL_RULES: Sequence[Type[Rule]] = (
    WallClockRule,
    UnseededRandomRule,
    BlockMutationRule,
    SpanBalanceRule,
    ExceptHygieneRule,
    MutableDefaultRule,
)


def scope_of(path: str) -> Optional[str]:
    """Return the repro sub-package a path belongs to, if any.

    ``src/repro/ftl/dftl.py`` -> ``"ftl"``; ``tools/ftlint.py`` -> None.
    Works on any path that contains a ``repro`` directory component.
    """
    parts = Path(path).parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and i + 1 < len(parts) - 0:
            nxt = parts[i + 1]
            if nxt.endswith(".py"):
                return None  # top-level repro module (cli.py, ...)
            return nxt
    return None


def lint_source(
    source: str,
    path: str = "<string>",
    scope: Optional[str] = "?",
    rules: Optional[Iterable[Type[Rule]]] = None,
) -> List[LintViolation]:
    """Lint one source string; the unit tests' entry point.

    ``scope="?"`` (the default) derives the scope from ``path``; pass an
    explicit scope (or None) to pin it regardless of the path.
    """
    if scope == "?":
        scope = scope_of(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(
            rule_id="FTL000",
            message=f"syntax error: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
        )]
    context = FileContext(
        path=path,
        scope=scope,
        source_lines=tuple(source.splitlines()),
    )
    violations: List[LintViolation] = []
    for rule_cls in (rules if rules is not None else ALL_RULES):
        if rule_cls.applies_to(scope):
            violations.extend(rule_cls(context).run(tree))
    violations.sort(key=lambda v: (v.line, v.col, v.rule_id))
    return violations


def lint_file(
    path: Path,
    rules: Optional[Iterable[Type[Rule]]] = None,
) -> List[LintViolation]:
    return lint_source(path.read_text(encoding="utf-8"), path=str(path),
                       rules=rules)


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Iterable[Type[Rule]]] = None,
) -> List[LintViolation]:
    """Lint files and/or directory trees (``*.py``, recursively)."""
    rule_list = None if rules is None else list(rules)
    violations: List[LintViolation] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                violations.extend(lint_file(f, rules=rule_list))
        else:
            violations.extend(lint_file(p, rules=rule_list))
    return violations

