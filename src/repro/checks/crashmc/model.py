"""Crash-side verdicts: the differential durability oracle and its results.

The model checker replays a workload through
:class:`~repro.checks.flashsan.SanitizedFTL`, whose
:class:`~repro.checks.shadow.ShadowModel` records what the host is
*entitled to* (see that module for the rules).  After the power cut and
recovery, :func:`oracle` reads every logical page back and sorts each
read the model does not allow into a lost write, a phantom or a torn
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..shadow import ShadowModel


@dataclass(frozen=True)
class DurabilityViolation:
    """One broken durability rule, picklable for cross-process reporting.

    Attributes:
        kind: ``"lost_write"`` (acknowledged data gone), ``"torn_value"``
            (read returned a value never acknowledged and not the one
            in flight), ``"phantom"`` (data on a page the host never
            wrote), ``"replay"`` (read-your-writes broke before the
            crash), or ``"audit"`` (the flashsan full-state audit of the
            recovered instance failed).
        lpn: Logical page involved, when one is identifiable.
        message: Human-readable description with expected/actual values.
    """

    kind: str
    lpn: Optional[int]
    message: str

    def __str__(self) -> str:
        where = f" lpn={self.lpn}" if self.lpn is not None else ""
        return f"[{self.kind}]{where} {self.message}"


def oracle(
    model: ShadowModel, read: Callable[[int], Any]
) -> List[DurabilityViolation]:
    """Read back every logical page and check it against the rules.

    Args:
        model: The acknowledged history the replay left behind.
        read: ``lpn -> recovered data`` (None for unmapped reads).
    """
    violations: List[DurabilityViolation] = []
    for lpn in range(model.logical_pages):
        got = read(lpn)
        allowed = model.allowed_after_crash(lpn)
        if got in allowed:
            continue
        if lpn in model.acked and got is None:
            kind = "lost_write"
            detail = (f"acknowledged write {model.acked[lpn]!r} "
                      "read back empty after recovery")
        elif lpn not in model.acked and lpn not in model.relaxed:
            kind = "phantom"
            detail = (f"never-written page read back {got!r} "
                      "after recovery")
        else:
            kind = "torn_value"
            detail = (f"recovered read returned {got!r}; allowed "
                      f"values were {sorted(map(repr, allowed))}")
        violations.append(DurabilityViolation(kind, lpn, detail))
    return violations


@dataclass(frozen=True)
class CrashPointResult:
    """Verdict for one crash point, picklable for parallel exploration.

    Attributes:
        crash_index: 0-based program/erase boundary the power cut hit
            (the fault trips just *before* the ``crash_index``-th flash
            mutation after arming).
        tripped: Whether the workload reached that boundary at all; a
            False with an in-range index means the case cut power cleanly
            after the final op instead.
        trip: The fault's trip-site report (empty when not tripped).
        acked_ops: Mutating host ops acknowledged before the cut.
        violations: Durability/audit violations found after recovery.
        mutated: Description of the deliberate post-recovery corruption
            applied in ``--mutate`` self-test mode (None otherwise).
    """

    crash_index: int
    tripped: bool
    trip: str
    acked_ops: int
    violations: Tuple[DurabilityViolation, ...]
    mutated: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CrashReport:
    """Aggregate verdict of one exhaustive crash exploration."""

    scheme: str
    seed: int
    num_ops: int
    boundaries: int
    results: List[CrashPointResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CrashPointResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def signature(self) -> str:
        """Deterministic digest of every verdict, for serial==parallel
        equivalence checks: identical exploration runs must produce
        identical signatures regardless of ``--jobs``."""
        parts = []
        for r in self.results:
            kinds = ",".join(
                f"{v.kind}@{v.lpn}" for v in r.violations
            )
            parts.append(
                f"{r.crash_index}:{int(r.tripped)}:{r.acked_ops}:{kinds}"
            )
        return f"{self.scheme}/{self.seed}/{self.num_ops}/" \
               f"{self.boundaries};" + ";".join(parts)
