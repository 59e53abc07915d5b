"""FTL008: no per-request attribute access in the simulator replay loop.

The replay loop in ``repro/sim/simulator.py`` (``Simulator._replay``,
named once in :data:`repro.checks.rulebase.REPLAY_LOOP`) iterates the
columnar trace form (:mod:`repro.traces.columnar`): four machine-typed
arrays, read by index.  Touching ``IORequest`` attributes - ``.op``,
``.is_write``, ``.pages``, ``.lpn``, ``.npages``, ``.arrival_us`` -
inside that function means a request *object* was materialised on the
per-request path, which is exactly the allocation + attribute-lookup +
Enum-compare tax the columnar engine removed.  This rule flags any such
access so the hot loop stays object-free.

Legitimate exceptions (e.g. a debug helper that inspects one request)
opt out per line with ``# ftlint: disable=FTL008`` and a comment saying
why, consistent with FTL007.
"""

from __future__ import annotations

import ast

from .base import Rule

#: IORequest attribute names whose access marks a per-request object.
#: (``npages`` is excluded: it is also the name of a ColumnarTrace
#: column, which the loops legitimately read.)
_REQUEST_ATTRS = frozenset({
    "op", "is_write", "pages", "lpn", "arrival_us",
})


class ReplayAttrRule(Rule):
    RULE_ID = "FTL008"
    MESSAGE = ("the simulator replay loop must iterate trace columns, "
               "not per-request objects (.op/.is_write/.pages/...)")
    SCOPES = frozenset({"sim"})

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self.context.is_replay_loop(node):
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Attribute)
                    and child.attr in _REQUEST_ATTRS
                ):
                    self.report(
                        child,
                        f".{child.attr} access in {node.name}(): iterate "
                        "the ColumnarTrace columns instead (or justify "
                        "with # ftlint: disable=FTL008)",
                    )
            # The walk above covered the whole function (including any
            # nested defs); do not also generic_visit into it.
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
