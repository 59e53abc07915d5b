"""Intra-module call-graph summaries of FTL protocol events.

The flow rules reason about five *protocol events* - the steps of the
page lifecycle LazyFTL's correctness argument rests on::

    allocate -> program -> map-update -> invalidate-old -> erase

Events are recognised syntactically from call names (``program_page``,
``invalidate_page``, ``erase_block``, ``pool.allocate()``, map-table
writes such as ``self._umt.set``/``gtd.set``), *through local aliases*:
the hot paths pre-bind methods (``program_page = flash.program_page``)
and the classifier resolves those single-assignment aliases before
matching, so the optimised loops are analysed just like the plain ones.

A :class:`ModuleSummaries` instance additionally propagates events
through the module's own call graph to a fixpoint: a function that calls
``self._collect_data_block(...)`` inherits that helper's INVALIDATE and
PROGRAM events, and *passing* a local function as an argument (LazyFTL's
``commit(groups, self._deferred_invalidate)`` callback) credits the
callee's events to the call site.  That keeps the rules honest across
the small helpers the schemes are factored into without whole-program
analysis.
"""

from __future__ import annotations

import ast
import enum
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class ProtocolEvent(enum.Flag):
    """One step of the page-lifecycle protocol (bit-flag set)."""

    NONE = 0
    ALLOCATE = enum.auto()     #: block/page taken from a pool or frontier
    PROGRAM = enum.auto()      #: raw NAND page program
    INVALIDATE = enum.auto()   #: old physical page invalidated
    ERASE = enum.auto()        #: raw NAND block erase
    MAP_WRITE = enum.auto()    #: mapping table (UMT/GTD/CMT/...) updated
    MAP_READ = enum.auto()     #: old mapping looked up


#: Attribute-name fragments that mark a mapping-table receiver; aligned
#: with FTL007's hints plus the scheme-local table names.
MAP_RECEIVER_HINTS = ("map", "gtd", "cmt", "umt", "l2p", "p2l")

#: Method names that write a mapping entry when called on a map-ish
#: receiver.  ``restore`` is deliberately absent: checkpoint/recovery
#: restores *rebuild* a table from scanned state, they do not update a
#: live mapping with an old page to retire.
_MAP_WRITE_METHODS = frozenset({
    "set", "insert", "put", "store", "update", "commit",
})

#: The page rewrite of the shared :class:`~repro.ftl.mapping.MappingStore`
#: (``self._maps.program``).  The store lives in another module, out of
#: reach of the intra-module summaries, so its contract is stated here:
#: besides programming the new copy of a translation page it repoints the
#: GTD and invalidates the old copy itself.
_STORE_REWRITE_METHOD = "program"

#: Method names that read the *current* (old) mapping of a key.
_MAP_READ_METHODS = frozenset({"ppn_at", "lookup", "get", "points_to"})

#: Call names that take a fresh block/page from a pool or frontier.
_ALLOC_NAMES = frozenset({"allocate", "alloc", "alloc_block", "take"})


def call_name_chain(func: ast.expr) -> Tuple[str, ...]:
    """Dotted name chain of a call target: ``self._umt.set`` ->
    ``("self", "_umt", "set")``; non-name links truncate the chain at
    the left (``blocks[i].erase`` -> ``("erase",)``)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return tuple(parts)


def local_aliases(func: FunctionNode) -> Dict[str, Tuple[str, ...]]:
    """Single-assignment local names bound to attribute chains.

    ``flash = self.flash`` then ``program_page = flash.program_page``
    resolves ``program_page`` to ``("self", "flash", "program_page")``.
    Names assigned more than once (or from non-chain expressions) are
    not aliases.
    """
    assign_counts: Dict[str, int] = {}
    candidates: Dict[str, Tuple[str, ...]] = {}
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            continue  # nested defs keep their own namespace
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            assign_counts[name] = assign_counts.get(name, 0) + 1
            chain = call_name_chain(node.value)
            if chain:
                candidates[name] = chain
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
                and isinstance(getattr(node, "target", None), ast.Name):
            name = node.target.id
            assign_counts[name] = assign_counts.get(name, 0) + 1
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    assign_counts[t.id] = assign_counts.get(t.id, 0) + 1
    aliases = {
        name: chain for name, chain in candidates.items()
        if assign_counts.get(name, 0) == 1
    }
    # Resolve alias-of-alias chains (flash -> self.flash) to a fixpoint;
    # depth is tiny in practice.
    for _ in range(4):
        changed = False
        for name, chain in list(aliases.items()):
            head = chain[0]
            if head in aliases and head != name:
                aliases[name] = aliases[head] + chain[1:]
                changed = True
        if not changed:
            break
    return aliases


def resolve_chain(
    func_expr: ast.expr, aliases: Dict[str, Tuple[str, ...]]
) -> Tuple[str, ...]:
    chain = call_name_chain(func_expr)
    if chain and chain[0] in aliases:
        chain = aliases[chain[0]] + chain[1:]
    return chain


def _is_map_receiver(chain: Tuple[str, ...]) -> bool:
    """A ``self``-rooted receiver with a map-ish component.

    Mapping *state* lives on the FTL instance (``self._umt``, ``gtd``
    pre-bound from ``self.gtd``); local staging dicts used by recovery
    scans or batch assembly are scratch space, not protocol state, so a
    non-``self`` root never counts (aliases are resolved before this
    test, which is what lets pre-bound ``gtd_set = self.gtd.set`` match).
    """
    if not chain or chain[0] != "self":
        return False
    receiver = chain[:-1]
    for part in receiver:
        lowered = part.lower()
        if any(hint in lowered for hint in MAP_RECEIVER_HINTS):
            return True
    return False


def classify_call(
    call: ast.Call, aliases: Dict[str, Tuple[str, ...]]
) -> ProtocolEvent:
    """Protocol events performed directly by one call expression."""
    chain = resolve_chain(call.func, aliases)
    if not chain:
        return ProtocolEvent.NONE
    last = chain[-1]
    lowered = last.lower()
    events = ProtocolEvent.NONE
    if "program" in lowered or lowered == "write_page":
        events |= ProtocolEvent.PROGRAM
    if "invalidate" in lowered:
        events |= ProtocolEvent.INVALIDATE
    if "erase" in lowered and "count" not in lowered:
        # erase_block/erase/_erase; but not erase_counts() and friends,
        # which read wear statistics without touching the device.
        events |= ProtocolEvent.ERASE
    if lowered in _ALLOC_NAMES:
        events |= ProtocolEvent.ALLOCATE
    if lowered in _MAP_WRITE_METHODS and _is_map_receiver(chain):
        events |= ProtocolEvent.MAP_WRITE
    if lowered in _MAP_READ_METHODS and _is_map_receiver(chain):
        events |= ProtocolEvent.MAP_READ
    if lowered == _STORE_REWRITE_METHOD and _is_map_receiver(chain):
        events |= ProtocolEvent.MAP_WRITE | ProtocolEvent.INVALIDATE
    return events


def is_map_subscript_store(node: ast.AST,
                           aliases: Dict[str, Tuple[str, ...]]) -> bool:
    """``self._cmt[key] = value`` - a mapping write via subscript on a
    map-ish attribute (local staging dicts do not count)."""
    if not (isinstance(node, (ast.Assign, ast.AugAssign))):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        if isinstance(target, ast.Subscript):
            chain = resolve_chain(target.value, aliases)
            if len(chain) >= 2 and _is_map_receiver(chain + ("",)):
                return True
    return False


class FunctionSummary:
    """Events one function performs, directly or through local calls."""

    __slots__ = ("name", "node", "direct", "events", "calls",
                 "func_refs")

    def __init__(self, name: str, node: FunctionNode):
        self.name = name
        self.node = node
        self.direct = ProtocolEvent.NONE
        self.events = ProtocolEvent.NONE
        #: Names of module-local functions/methods this function calls.
        self.calls: Set[str] = set()
        #: Local functions referenced without being called (callbacks).
        self.func_refs: Set[str] = set()


class ModuleSummaries:
    """Per-function protocol-event summaries for one module AST."""

    def __init__(self, tree: ast.AST):
        self.functions: Dict[str, FunctionSummary] = {}
        self._collect(tree)
        self._propagate()

    # -- construction --------------------------------------------------
    def _collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            summary = FunctionSummary(node.name, node)
            aliases = local_aliases(node)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    summary.direct |= classify_call(sub, aliases)
                    chain = resolve_chain(sub.func, aliases)
                    if chain:
                        summary.calls.add(chain[-1])
                    for arg in list(sub.args) + [
                            kw.value for kw in sub.keywords]:
                        ref = call_name_chain(arg)
                        if ref:
                            summary.func_refs.add(ref[-1])
                elif is_map_subscript_store(sub, aliases):
                    summary.direct |= ProtocolEvent.MAP_WRITE
            summary.events = summary.direct
            # Last definition of a name wins, matching runtime rebinding;
            # module-level name collisions are rare enough to accept.
            self.functions[node.name] = summary

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for summary in self.functions.values():
                inherited = summary.events
                for callee in summary.calls | summary.func_refs:
                    target = self.functions.get(callee)
                    if target is not None and target is not summary:
                        inherited |= target.events
                if inherited != summary.events:
                    summary.events = inherited
                    changed = True

    # -- queries -------------------------------------------------------
    def events_of(self, name: str) -> ProtocolEvent:
        summary = self.functions.get(name)
        return summary.events if summary else ProtocolEvent.NONE

    def call_events(
        self, call: ast.Call, aliases: Dict[str, Tuple[str, ...]]
    ) -> ProtocolEvent:
        """Direct events of a call plus the summarised events of the
        module-local callee and of any local function passed as an
        argument (callback credit)."""
        events = classify_call(call, aliases)
        chain = resolve_chain(call.func, aliases)
        if chain:
            events |= self.events_of(chain[-1])
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            ref = call_name_chain(arg)
            if ref:
                events |= self.events_of(ref[-1])
        return events


#: Call names considered exception-safe for the torn-state rule: pure
#: bookkeeping that cannot plausibly raise mid-protocol.
SAFE_CALLS = frozenset({
    "append", "add", "discard", "remove", "clear", "len", "min", "max",
    "sorted", "sum", "abs", "bool", "int", "float", "range", "print",
    "emit", "span_start", "span_end", "push_cause", "pop_cause",
    "is_suppressed", "isinstance", "id", "repr", "str", "format",
})


def _header_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """Expressions a *stored* statement evaluates itself (the CFG keeps
    compound statements as header markers; their bodies are separate
    blocks and must not be scanned through the marker)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [stmt]


def stmt_may_raise(stmt: ast.stmt) -> bool:
    """Conservative may-raise test for one stored statement: explicit
    ``raise`` or any call whose target is not a known-safe name."""
    for root in _header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                chain = call_name_chain(node.func)
                if not chain or chain[-1] not in SAFE_CALLS:
                    return True
    return False
