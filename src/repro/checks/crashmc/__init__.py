"""Crash-consistency model checker.

Enumerates every program/erase boundary of a workload, cuts power at each
one, runs the scheme's recovery procedure and validates the survivor
against a differential durability oracle (acknowledged writes must read
back exactly; in-flight writes read back old-or-new, never garbage; the
recovered mapping must pass the flashsan full-state audit).  Failures come
with a deterministic reproducer string and an automatic ddmin shrinker.

CLI: ``repro crashcheck``.  Library entry points: :func:`explore` for the
exhaustive matrix, :func:`check_case` for a single crash point,
:func:`shrink` for minimization.
"""

from .checker import (
    CrashCase,
    check_case,
    count_boundaries,
    explore,
    first_failure,
)
from .model import (
    CrashPointResult,
    CrashReport,
    DurabilityViolation,
    oracle,
)
from .schemes import DEFAULT_DEVICE, DeviceParams
from .shrink import ShrinkResult, shrink
from .workload import Op, decode_ops, encode_ops, mixed_ops

__all__ = [
    "CrashCase",
    "check_case",
    "count_boundaries",
    "explore",
    "first_failure",
    "CrashPointResult",
    "CrashReport",
    "DurabilityViolation",
    "oracle",
    "DEFAULT_DEVICE",
    "DeviceParams",
    "ShrinkResult",
    "shrink",
    "Op",
    "decode_ops",
    "encode_ops",
    "mixed_ops",
]
