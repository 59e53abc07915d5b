"""FTL003: only the flash package may store to the device state arrays.

:class:`~repro.flash.chip.NandFlash` keeps all page and block state in
flat arrays that are public *to read* (``flash.write_ptr[pbn]``,
``flash.page_states[ppn]``, ...) so FTLs, GC policies and auditors can
inspect the device without a call.  The hazard that remains is the other
direction: a store - ``flash.valid_count[pbn] -= 1``,
``flash.page_states[a:b] = ...``, rebinding ``flash.is_bad`` - from
outside ``src/repro/flash`` changes device state without the raw
operation that owns the NAND checks, latency accounting, power-fault
injection and sanitizer hooks, and silently desynchronises the counters
from the page states (the ``block-counter-drift`` audit catches it only
after the fact).  FTL schemes must go through program / erase /
invalidate; fault-seeding tests opt out per line.
"""

from __future__ import annotations

import ast
from typing import Optional

from .base import Rule

#: NandFlash state arrays that only flash-layer code may store to.
_GUARDED_ARRAYS = frozenset({
    "page_states", "page_data", "oob_lpn", "oob_seq", "oob_kind", "oob_cold",
    "write_ptr", "valid_count", "erase_count", "is_bad", "invalidated",
})
#: Device mutators that only flash-layer (or test/fault) code may call.
_GUARDED_CALLS = frozenset({"force_erase", "mark_bad"})


class BlockMutationRule(Rule):
    RULE_ID = "FTL003"
    MESSAGE = "device state arrays may only be stored to inside repro.flash"

    @classmethod
    def applies_to(cls, scope: Optional[str]) -> bool:
        # Everywhere except the flash package itself (and its tests are
        # outside src/repro, where scope is None - still patrolled).
        return scope != "flash"

    def _check_target(self, target: ast.expr) -> None:
        # ``x.valid_count = ...`` rebinds the array; ``x.valid_count[i] =
        # ...`` (index or slice) stores into it, as does each element of
        # a tuple target.
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
            return
        array = target.value if isinstance(target, ast.Subscript) else target
        if (isinstance(array, ast.Attribute)
                and array.attr in _GUARDED_ARRAYS):
            self.report(
                target,
                f"store to device array .{array.attr} outside repro.flash; "
                "go through the NandFlash operation surface",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _GUARDED_CALLS:
            self.report(
                node,
                f".{func.attr}() call outside repro.flash; block "
                "retirement/erasure belongs to the device layer",
            )
        self.generic_visit(node)
