"""FTL010: the page-lifecycle protocol, checked over paths.

LazyFTL's correctness argument (and every scheme's) rests on the strict
page lifecycle ``allocate -> program -> map-update -> invalidate-old ->
erase``.  This rule checks three flow properties of that protocol inside
``repro.core`` and ``repro.ftl``:

**A. update/invalidate pairing** - a function that reads the old mapping
of a key (``old_ppn = umt.ppn_at(lpn)``, ``old = gtd.get(tvpn)``) and
then updates the mapping on a path reachable from that read must carry
invalidation evidence somewhere on its paths: a direct ``invalidate*``
call, a call to a module-local helper whose summary invalidates, or a
local invalidation callback passed as an argument (LazyFTL's deferred
``commit(groups, self._deferred_invalidate)``).  A mapping rewrite with
the old PPN in hand and no invalidation anywhere leaks the old page as
permanently-valid garbage - the classic FTL leak.

**B. frontier PPNs are programmed before they escape** - a variable
computed from a write frontier (the ``frontier * pages_per_block +
write_ptr`` idiom, or an ``alloc_page``-style call) must pass through a
``program_page`` call on every path before it escapes the function
(return, attribute/subscript store, or handed to a non-programming
call).  Only a device call counts: there is no in-place way to program
a page from outside ``repro.flash`` (FTL003 forbids stores to the device
arrays), so a PPN that escapes without one names a page that was never
written.  Exception paths are exempt: unwinding without programming is the
crash-model's business (crashmc), not a protocol leak.

**C. erase only with relocation evidence** - a statement that (directly)
erases a block must be preceded on its paths by invalidation/relocation
evidence (an ``invalidate*``/``program*`` call or a helper summarising
one), or carry that evidence itself via a summarised callee.  Functions
whose own name marks them as the erase primitive (``erase``/``recycle``/
``retire``) are exempt; their *callers* inherit the obligation through
the call-graph summaries.

Suppress intentional exceptions per line with ``# ftlint:
disable=FTL010`` and a reason, as usual.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .base import FlowRule, FunctionAnalysis
from .cfg import CFG, BasicBlock
from .summaries import (
    ModuleSummaries,
    ProtocolEvent,
    call_name_chain,
    classify_call,
    is_map_subscript_store,
    resolve_chain,
)

#: Page-granular allocation call names (block-granular ``allocate()`` is
#: legitimate to push into an area unprogrammed, so it is *not* here).
_PAGE_ALLOC_NAMES = frozenset({
    "alloc_page", "next_ppn", "take_page", "claim_page", "reserve_page",
    "claim_ppn",
})

#: Function-name fragments marking the erase primitive itself.
_ERASE_PRIMITIVES = ("erase", "recycle", "retire", "scrub")


def _expr_load_names(node: ast.AST) -> Set[str]:
    return {
        sub.id for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _is_frontier_arith(value: ast.expr) -> bool:
    """The repo's PPN-forming idiom: arithmetic over a frontier."""
    if not isinstance(value, ast.BinOp):
        return False
    names = set()
    for sub in ast.walk(value):
        if isinstance(sub, ast.Name):
            names.add(sub.id.lower())
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr.lower())
    return any("frontier" in name for name in names)


class PpnLifecycleRule(FlowRule):
    RULE_ID = "FTL010"
    MESSAGE = ("page-lifecycle protocol: mapping updates pair with "
               "invalidation, frontier PPNs are programmed before they "
               "escape, blocks are erased only after relocation")
    SCOPES = frozenset({"core", "ftl"})

    # ------------------------------------------------------------------
    def check_function(self, analysis: FunctionAnalysis,
                       summaries: ModuleSummaries,
                       tree: ast.Module) -> None:
        cfg = analysis.cfg
        aliases = analysis.aliases
        stmts = [(b, i, s) for b, i, s in cfg.statements()]

        map_reads: List[Tuple[ast.stmt, str]] = []
        map_writes: List[ast.stmt] = []
        invalidate_evidence: List[ast.stmt] = []
        program_stmts: Dict[str, List[ast.stmt]] = {}
        frontier_defs: List[Tuple[ast.stmt, str]] = []
        erase_stmts: List[Tuple[ast.stmt, ast.Call]] = []
        relocation_evidence: List[ast.stmt] = []

        for _block, _index, stmt in stmts:
            stmt_events = ProtocolEvent.NONE
            stmt_calls = self._stmt_calls(stmt)
            for call in stmt_calls:
                events = summaries.call_events(call, aliases)
                direct = classify_call(call, aliases)
                stmt_events |= events
                if direct & ProtocolEvent.ERASE:
                    erase_stmts.append((stmt, call))
                if events & ProtocolEvent.PROGRAM:
                    for name in self._call_arg_names(call):
                        program_stmts.setdefault(name, []).append(stmt)
            if stmt_events & ProtocolEvent.INVALIDATE:
                invalidate_evidence.append(stmt)
            if stmt_events & (ProtocolEvent.INVALIDATE
                              | ProtocolEvent.PROGRAM):
                relocation_evidence.append(stmt)
            if (stmt_events & ProtocolEvent.MAP_WRITE) \
                    or is_map_subscript_store(stmt, aliases):
                map_writes.append(stmt)

            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target = stmt.targets[0].id
                value = stmt.value
                value_calls = [n for n in ast.walk(value)
                               if isinstance(n, ast.Call)]
                if any(classify_call(c, aliases) & ProtocolEvent.MAP_READ
                       for c in value_calls):
                    map_reads.append((stmt, target))
                if _is_frontier_arith(value) or any(
                    resolve_chain(c.func, aliases)
                    and resolve_chain(c.func, aliases)[-1].lower()
                    in _PAGE_ALLOC_NAMES
                    for c in value_calls
                ):
                    frontier_defs.append((stmt, target))

        self._check_pairing(analysis, map_reads, map_writes,
                            invalidate_evidence)
        self._check_frontier_escape(analysis, frontier_defs,
                                    program_stmts, aliases)
        self._check_erase(analysis, erase_stmts, relocation_evidence)

    # -- A: update/invalidate pairing ----------------------------------
    def _check_pairing(self, analysis: FunctionAnalysis,
                       map_reads: List[Tuple[ast.stmt, str]],
                       map_writes: List[ast.stmt],
                       invalidate_evidence: List[ast.stmt]) -> None:
        if not map_writes or not map_reads:
            return
        if invalidate_evidence:
            # Some path carries invalidation; with deferred invalidation
            # a path-exact pairing is scheme policy, not a flow error.
            return
        for write in map_writes:
            for read, var in map_reads:
                if write is read:
                    continue
                if self._stmt_reaches(analysis, read, write):
                    self.report(
                        write,
                        "mapping update is reachable from the old-"
                        f"mapping read of '{var}' (line "
                        f"{getattr(read, 'lineno', '?')}) but no path in "
                        "this function invalidates the old physical "
                        "page; the superseded copy stays valid forever",
                    )
                    break

    # -- B: frontier PPN escapes ---------------------------------------
    def _check_frontier_escape(
        self, analysis: FunctionAnalysis,
        frontier_defs: List[Tuple[ast.stmt, str]],
        program_stmts: Dict[str, List[ast.stmt]],
        aliases: Dict[str, Tuple[str, ...]],
    ) -> None:
        cfg = analysis.cfg
        for def_stmt, var in frontier_defs:
            programs = program_stmts.get(var, [])
            escapes = self._escape_sites(cfg, def_stmt, var, programs,
                                         aliases)
            for escape in escapes:
                if self._path_between_avoiding(analysis, def_stmt,
                                               escape, programs):
                    self.report(
                        escape,
                        f"frontier PPN '{var}' (allocated at line "
                        f"{getattr(def_stmt, 'lineno', '?')}) escapes "
                        "without being programmed on some path; a "
                        "reserved page would leak unwritten",
                    )
                    break

    def _escape_sites(self, cfg: CFG, def_stmt: ast.stmt, var: str,
                      programs: List[ast.stmt],
                      aliases: Dict[str, Tuple[str, ...]]
                      ) -> List[ast.stmt]:
        program_ids = {id(s) for s in programs}
        escapes: List[ast.stmt] = []
        for _block, _index, stmt in cfg.statements():
            if stmt is def_stmt or id(stmt) in program_ids:
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is not None \
                        and var in _expr_load_names(stmt.value):
                    escapes.append(stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)) \
                            and var in _expr_load_names(stmt.value):
                        escapes.append(stmt)
                        break
            else:
                for call in self._stmt_calls(stmt):
                    if var in self._call_arg_names(call):
                        escapes.append(stmt)
                        break
        return escapes

    # -- C: erase with relocation evidence -----------------------------
    def _check_erase(self, analysis: FunctionAnalysis,
                     erase_stmts: List[Tuple[ast.stmt, ast.Call]],
                     relocation_evidence: List[ast.stmt]) -> None:
        func_name = analysis.func.name.lower()
        if any(marker in func_name for marker in _ERASE_PRIMITIVES):
            return  # the primitive itself; callers carry the obligation
        guarded = self._validity_guarded_stmts(analysis.func)
        for stmt, call in erase_stmts:
            if id(stmt) in guarded:
                # Dominated by a liveness test (``valid_count == 0`` and
                # friends): the guard *is* the relocation evidence - the
                # block was observed dead before the erase.
                continue
            evidence = [s for s in relocation_evidence if s is not stmt]
            if any(self._stmt_reaches(analysis, ev, stmt)
                   for ev in evidence):
                continue
            self.report(
                stmt,
                "block erase with no invalidation/relocation evidence "
                "on any path before it in this function; live mappings "
                "may still point into the erased block",
            )

    #: Name fragments whose presence in a branch test marks it as a
    #: block-liveness check.
    _VALIDITY_FRAGMENTS = ("valid", "empty", "stale", "live", "free")

    @classmethod
    def _validity_guarded_stmts(cls, func: ast.FunctionDef) -> Set[int]:
        """ids of statements nested under an If/While whose test reads a
        liveness attribute (``valid_count``, ``is_empty``, ...)."""
        guarded: Set[int] = set()
        for node in ast.walk(func):
            if not isinstance(node, (ast.If, ast.While)):
                continue
            mentions = set()
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Attribute):
                    mentions.add(sub.attr.lower())
                elif isinstance(sub, ast.Name):
                    mentions.add(sub.id.lower())
            if not any(frag in name for name in mentions
                       for frag in cls._VALIDITY_FRAGMENTS):
                continue
            for branch in (node.body, getattr(node, "orelse", [])):
                for stmt in branch:
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.stmt):
                            guarded.add(id(sub))
        return guarded

    # -- plumbing ------------------------------------------------------
    @staticmethod
    def _stmt_calls(stmt: ast.stmt) -> List[ast.Call]:
        from .summaries import _header_exprs
        calls: List[ast.Call] = []
        for root in _header_exprs(stmt):
            calls.extend(n for n in ast.walk(root)
                         if isinstance(n, ast.Call))
        return calls

    @staticmethod
    def _call_arg_names(call: ast.Call) -> Set[str]:
        names: Set[str] = set()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            names |= _expr_load_names(arg)
        return names

    @staticmethod
    def _stmt_reaches(analysis: FunctionAnalysis, a: ast.stmt,
                      b: ast.stmt) -> bool:
        """True when statement ``b`` may execute after ``a``."""
        cfg = analysis.cfg
        block_a, index_a = cfg.position_of(a)
        block_b, index_b = cfg.position_of(b)
        if block_a is block_b and index_a < index_b:
            return True
        seen: Set[int] = set()
        stack = list(block_a.succs)
        while stack:
            block = stack.pop()
            if block.bid in seen:
                continue
            seen.add(block.bid)
            if block is block_b:
                return True
            stack.extend(block.succs)
        return False

    @staticmethod
    def _path_between_avoiding(analysis: FunctionAnalysis,
                               start: ast.stmt, goal: ast.stmt,
                               avoid: List[ast.stmt]) -> bool:
        """True when some path from after ``start`` reaches ``goal``
        without executing any ``avoid`` statement."""
        cfg = analysis.cfg
        avoid_ids = {id(s) for s in avoid}
        start_block, start_index = cfg.position_of(start)
        goal_block, goal_index = cfg.position_of(goal)

        def segment_clear(block: BasicBlock, lo: int, hi: int) -> bool:
            return not any(id(s) in avoid_ids
                           for s in block.stmts[lo:hi])

        if start_block is goal_block and start_index < goal_index:
            if segment_clear(start_block, start_index + 1, goal_index):
                return True
        # DFS block-wise: leave start block (clear tail), traverse clear
        # blocks, enter goal block (clear prefix).
        if not segment_clear(start_block, start_index + 1,
                             len(start_block.stmts)):
            return False
        seen: Set[int] = set()
        stack = list(start_block.succs)
        while stack:
            block = stack.pop()
            if block.bid in seen:
                continue
            seen.add(block.bid)
            if block is goal_block:
                if segment_clear(block, 0, goal_index):
                    return True
                continue
            if segment_clear(block, 0, len(block.stmts)):
                stack.extend(block.succs)
        return False
