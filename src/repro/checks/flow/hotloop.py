"""FTL013: allocation and lookup discipline inside the hot inner loops.

PR 3/4 hand-optimised the replay and GC inner loops: methods pre-bound
to locals, no per-iteration objects, no closures.  FTL007/FTL008 pin two
specific regressions by name; this rule generalises them flow-aware for
any function marked hot.  A function is *hot* when it is the simulator
replay loop (:data:`repro.checks.rulebase.REPLAY_LOOP`, shared with
FTL008) or when its ``def`` line - or the line directly above it -
carries a ``# flowlint: hot`` marker, which is how the GC/commit inner
loops in the schemes opt in.

Inside every loop of a hot function the rule flags:

* **closure creation** - ``lambda`` or a nested ``def`` per iteration;
* **container builds** - list/set/dict comprehensions or generator
  expressions materialised per iteration (hoist or rewrite scalar);
* **repeated attribute lookups** - the same ``a.b``/``a.b.c`` load chain
  evaluated twice or more per iteration with a loop-invariant root:
  bind it to a local before the loop (the pre-binding idiom the hot
  paths already use).  Chains whose root is rebound inside the loop, or
  is guarded by an ``is not None`` test (optional tracers), are exempt;
* **per-element numpy indexing** - scalar ``x[i]`` subscripts on a name
  assigned from a numpy call: each one round-trips through a boxed
  Python float, defeating the vectorized kernel (slices are exempt -
  they stay bulk);
* **``np.append`` calls** - every call reallocates and copies the whole
  array; accumulate into a list / preallocated buffer instead;
* **object allocation** - a class instantiated (CapWord call) on every
  iteration; pre-build it or use the columnar form (exception
  constructors inside ``raise`` are exempt: they fire once, then
  unwind).

Per-line opt-out: ``# ftlint: disable=FTL013`` plus a reason.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .base import FlowRule, FunctionAnalysis
from .summaries import ModuleSummaries

#: Marker comment that opts a function into hot-loop analysis.
HOT_MARKER = "# flowlint: hot"

#: Minimum per-loop occurrences of an attribute chain before it is
#: reported as a hoistable repeated lookup.
_REPEAT_THRESHOLD = 2

#: Names a module binds the numpy module to.  ``_np`` is the lazy
#: import alias used by :mod:`repro.perf.batch`.
_NUMPY_ROOTS = frozenset({"np", "_np", "numpy"})


def _attr_chain(node: ast.Attribute) -> Optional[Tuple[str, ...]]:
    """Name-rooted attribute load chain, outermost attr last; None when
    the chain is rooted in a call/subscript (not trivially hoistable)."""
    parts: List[str] = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if not isinstance(value, ast.Name):
        return None
    parts.append(value.id)
    parts.reverse()
    return tuple(parts)


class HotLoopRule(FlowRule):
    RULE_ID = "FTL013"
    MESSAGE = ("hot-loop safety: no closures, per-iteration container "
               "builds, repeated attribute lookups, per-element numpy "
               "indexing, np.append, or object allocation inside marked "
               "replay/GC/kernel inner loops")
    SCOPES = frozenset({"core", "ftl", "perf", "sim"})

    # ------------------------------------------------------------------
    def _is_hot(self, func: ast.FunctionDef) -> bool:
        if self.context.is_replay_loop(func):
            return True
        lines = self.context.source_lines
        for lineno in (func.lineno, func.lineno - 1):
            if 1 <= lineno <= len(lines) \
                    and HOT_MARKER in lines[lineno - 1]:
                return True
        return False

    def check_function(self, analysis: FunctionAnalysis,
                       summaries: ModuleSummaries,
                       tree: ast.Module) -> None:
        func = analysis.func
        if not self._is_hot(func):
            return
        guarded = self._none_guarded_names(func)
        numpy_names = self._numpy_names(func)
        raise_calls = self._raise_calls(func)
        reported: Set[int] = set()
        for loop in self._own_loops(func):
            self._check_loop(loop, guarded, numpy_names, raise_calls,
                             reported)

    # ------------------------------------------------------------------
    @staticmethod
    def _own_loops(func: ast.FunctionDef) -> List[ast.stmt]:
        """Loops belonging to the function itself (not nested defs)."""
        loops: List[ast.stmt] = []
        stack: List[ast.AST] = [func]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    continue  # nested defs keep their own loops
                if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                    loops.append(child)
                stack.append(child)
        return loops

    @staticmethod
    def _numpy_names(func: ast.FunctionDef) -> Set[str]:
        """Names bound from a numpy-rooted call (``x = np.cumsum(...)``):
        scalar ``x[i]`` on these inside a hot loop defeats the kernel."""
        names: Set[str] = set()
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            fn = node.value.func
            if not isinstance(fn, ast.Attribute):
                continue
            chain = _attr_chain(fn)
            if chain is None or chain[0] not in _NUMPY_ROOTS:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _raise_calls(func: ast.FunctionDef) -> Set[int]:
        """ids of Call nodes inside ``raise`` expressions: exception
        constructors fire once and unwind, never per iteration."""
        exempt: Set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for sub in ast.walk(node.exc):
                    if isinstance(sub, ast.Call):
                        exempt.add(id(sub))
        return exempt

    @staticmethod
    def _none_guarded_names(func: ast.FunctionDef) -> Set[str]:
        """Roots tested with ``is [not] None`` anywhere in the function:
        optional dependencies (tracers) that cannot be pre-bound."""
        guarded: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Compare) and len(node.ops) == 1 \
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                for side in (node.left, node.comparators[0]):
                    if isinstance(side, ast.Name):
                        guarded.add(side.id)
        return guarded

    def _check_loop(self, loop: ast.stmt, guarded: Set[str],
                    numpy_names: Set[str], raise_calls: Set[int],
                    reported: Set[int]) -> None:
        body: List[ast.stmt] = list(loop.body)  # type: ignore[attr-defined]
        rebound = self._rebound_names(loop)
        chain_sites: Dict[Tuple[str, ...], List[ast.AST]] = {}
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Lambda) and id(node) not in reported:
                    reported.add(id(node))
                    self.report(node, "closure (lambda) created on every "
                                      "iteration of a hot loop; hoist it")
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)) \
                        and id(node) not in reported:
                    reported.add(id(node))
                    self.report(node, f"nested def '{node.name}' creates "
                                      "a closure on every iteration of a "
                                      "hot loop; hoist it")
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)) \
                        and id(node) not in reported:
                    reported.add(id(node))
                    self.report(node, "container built on every iteration "
                                      "of a hot loop; hoist it or rewrite "
                                      "the scalar way")
                elif isinstance(node, ast.Subscript) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in numpy_names \
                        and not isinstance(node.slice, ast.Slice) \
                        and id(node) not in reported:
                    reported.add(id(node))
                    self.report(
                        node,
                        f"per-element index into numpy array "
                        f"'{node.value.id}' inside a hot loop boxes a "
                        "Python scalar each time; slice it, vectorize "
                        "the op, or use the pure-array kernel",
                    )
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute):
                    chain = _attr_chain(node.func)
                    if chain is not None and chain[0] in _NUMPY_ROOTS \
                            and chain[-1] == "append" \
                            and id(node) not in reported:
                        reported.add(id(node))
                        self.report(
                            node,
                            "np.append inside a hot loop copies the "
                            "whole array every call; accumulate into a "
                            "list or preallocated buffer",
                        )
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id[:1].isupper() \
                        and not node.func.id.isupper() \
                        and id(node) not in raise_calls \
                        and id(node) not in reported:
                    reported.add(id(node))
                    self.report(
                        node,
                        f"'{node.func.id}(...)' allocates an object on "
                        "every iteration of a hot loop; hoist it or use "
                        "the columnar/tuple fast path",
                    )
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    chain = _attr_chain(node)
                    if chain is not None:
                        chain_sites.setdefault(chain, []).append(node)
        for chain, sites in sorted(chain_sites.items()):
            if len(sites) < _REPEAT_THRESHOLD:
                continue
            root = chain[0]
            if root in rebound or root in guarded:
                continue
            # Report once per chain, on its first occurrence in the loop.
            first = min(sites, key=lambda n: (n.lineno, n.col_offset))
            if id(first) in reported:
                continue
            reported.add(id(first))
            dotted = ".".join(chain)
            self.report(
                first,
                f"'{dotted}' is looked up {len(sites)}x per iteration "
                "of a hot loop; bind it to a local before the loop",
            )

    @staticmethod
    def _rebound_names(loop: ast.stmt) -> Set[str]:
        """Names (re)bound by the loop target or inside its body."""
        rebound: Set[str] = set()
        target = getattr(loop, "target", None)
        roots: List[ast.AST] = ([target] if target is not None else [])
        roots.extend(loop.body)  # type: ignore[attr-defined]
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)):
                    rebound.add(node.id)
        return rebound
