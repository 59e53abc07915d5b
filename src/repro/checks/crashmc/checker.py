"""Exhaustive crash-point exploration with a differential durability oracle.

One *crash case* is fully determined by picklable inputs: a scheme, a
workload (seed + length, or an explicit op list), and a crash index - the
0-based program/erase boundary where power is cut.  :func:`check_case`
replays the workload through :class:`~repro.checks.flashsan.SanitizedFTL`
on a fresh device with the fault armed at that boundary - its
:class:`~repro.checks.shadow.ShadowModel` records acknowledged state and
checks every powered read - recovers the survivor through the standard
:func:`repro.sim.recover_ftl` protocol, and validates it twice:

1. the flashsan full-state audit (:func:`repro.checks.audit_ftl`) - the
   recovered *mapping* must be internally consistent;
2. the durability oracle - every logical page must read back a value the
   acknowledged history allows.

:func:`explore` counts the workload's boundaries with one clean replay and
fans one case per boundary across worker processes via the perf sweep
harness - the same serial==parallel guarantee as the benchmarks, checked by
:meth:`CrashReport.signature`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from ...flash import PowerLossError
from ...perf.sweep import SweepWorkerError, run_tasks
from ...sim.factory import recover_ftl
from ..auditors import audit_ftl
from ..flashsan import SanitizedFTL
from .model import CrashPointResult, CrashReport, DurabilityViolation, \
    oracle
from .schemes import DEFAULT_DEVICE, DeviceParams, build_instance, \
    corrupt_one_entry
from .workload import Op, decode_ops, encode_ops, mixed_ops

_REPRO_PREFIX = "crashmc:v1"


@dataclass(frozen=True)
class CrashCase:
    """One fully-determined crash experiment (picklable, hashable).

    The workload is either generative (``seed`` + ``num_ops``) or explicit
    (``ops``, used by the shrinker and by reproducer strings for minimized
    sequences); ``ops`` wins when both are set.
    """

    scheme: str
    crash_index: int
    seed: int = 0
    num_ops: int = 0
    ops: Optional[Tuple[Op, ...]] = None
    mutate: bool = False
    device: DeviceParams = DEFAULT_DEVICE
    checkpoint_interval: int = 48

    def workload(self) -> Tuple[Op, ...]:
        if self.ops is not None:
            return self.ops
        return mixed_ops(self.num_ops, self.device.logical_pages, self.seed)

    # ------------------------------------------------------------------
    # Reproducer strings
    # ------------------------------------------------------------------
    def reproducer(self) -> str:
        """Stable one-line string that rebuilds this exact case.

        Paste it back through :meth:`from_reproducer` (or ``repro
        crashcheck --repro <string>``) to replay the failure
        deterministically.
        """
        parts = [_REPRO_PREFIX, f"scheme={self.scheme}"]
        if self.ops is not None:
            parts.append(f"oplist={encode_ops(self.ops)}")
        else:
            parts.append(f"seed={self.seed}")
            parts.append(f"ops={self.num_ops}")
        parts.append(f"crash={self.crash_index}")
        parts.append(f"ckpt={self.checkpoint_interval}")
        if self.device != DEFAULT_DEVICE:
            parts.append(f"dev={self.device.key()}")
        if self.mutate:
            parts.append("mutate=1")
        return ":".join(parts)

    @classmethod
    def from_reproducer(cls, text: str) -> "CrashCase":
        """Parse a :meth:`reproducer` string back into a case."""
        if not text.startswith(_REPRO_PREFIX + ":"):
            raise ValueError(
                f"not a {_REPRO_PREFIX} reproducer: {text!r}"
            )
        fields = {}
        for token in text[len(_REPRO_PREFIX) + 1:].split(":"):
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"malformed reproducer token {token!r}")
            fields[key] = value
        try:
            return cls(
                scheme=fields["scheme"],
                crash_index=int(fields["crash"]),
                seed=int(fields.get("seed", "0")),
                num_ops=int(fields.get("ops", "0")),
                ops=(decode_ops(fields["oplist"])
                     if "oplist" in fields else None),
                mutate=fields.get("mutate", "0") == "1",
                device=(DeviceParams.parse(fields["dev"])
                        if "dev" in fields else DEFAULT_DEVICE),
                checkpoint_interval=int(fields.get("ckpt", "48")),
            )
        except KeyError as missing:
            raise ValueError(
                f"reproducer missing field {missing}: {text!r}"
            ) from None


def count_boundaries(case: CrashCase) -> int:
    """Number of program/erase boundaries the workload crosses.

    Replays the workload once with no fault armed; every page program and
    every block erase is one place power can be cut, so the exhaustive
    exploration space is exactly ``range(count_boundaries(case))`` (plus
    the clean cut after the final op).
    """
    flash, ftl = build_instance(
        case.scheme, case.device, case.checkpoint_interval
    )
    for i, (kind, lpn) in enumerate(case.workload()):
        if kind == "w":
            ftl.write(lpn, (lpn, i))
        elif kind == "d":
            ftl.trim(lpn)
        else:
            ftl.read(lpn)
    return flash.stats.page_programs + flash.stats.block_erases


def check_case(case: CrashCase) -> CrashPointResult:
    """Replay, crash, recover and judge one crash case."""
    ops = case.workload()
    flash, ftl = build_instance(
        case.scheme, case.device, case.checkpoint_interval
    )
    host = SanitizedFTL(ftl, on_violation="record")
    flash.fault.arm_at_op_index(case.crash_index)
    tripped = False
    try:
        for i, (kind, lpn) in enumerate(ops):
            if kind == "w":
                host.write(lpn, (lpn, i))
            elif kind == "d":
                host.trim(lpn)
            else:
                host.read(lpn)
    except PowerLossError:
        tripped = True
    violations = [DurabilityViolation("replay", finding.lpn, finding.message)
                  for finding in host.violations]
    trip = flash.fault.trip_report() if tripped else ""
    if not tripped:
        # The workload has fewer boundaries than the crash index: power
        # off cleanly after the final op instead (nothing is in flight).
        flash.power_off()
    recovered = recover_ftl(ftl)
    model = host.model
    mutated = None
    if case.mutate:
        mutated = corrupt_one_entry(recovered, sorted(model.acked))
    audit = audit_ftl(recovered)
    for finding in audit.violations:
        violations.append(DurabilityViolation(
            "audit", finding.lpn,
            f"{finding.kind.value}: {finding.message}",
        ))
    violations.extend(
        oracle(model, lambda lpn: recovered.read(lpn)[0])
    )
    return CrashPointResult(
        crash_index=case.crash_index,
        tripped=tripped,
        trip=trip,
        acked_ops=model.acked_ops,
        violations=tuple(violations),
        mutated=mutated,
    )


def _run_case(case: CrashCase) -> CrashPointResult:
    """Worker entry point; wraps failures in a picklable error."""
    try:
        return check_case(case)
    except Exception:
        raise SweepWorkerError(
            f"{case.scheme}@crash={case.crash_index}",
            traceback.format_exc(),
        ) from None


def explore(
    scheme: str,
    num_ops: int = 0,
    seed: int = 0,
    ops: Optional[Tuple[Op, ...]] = None,
    jobs: int = 1,
    mutate: bool = False,
    device: DeviceParams = DEFAULT_DEVICE,
    checkpoint_interval: int = 48,
    crash_indices: Optional[Iterable[int]] = None,
) -> CrashReport:
    """Exhaustively explore every crash boundary of one workload.

    Args:
        scheme: One of :data:`~repro.sim.factory.RECOVERABLE_SCHEMES`.
        num_ops / seed: Generative workload parameters.
        ops: Explicit op list (overrides ``num_ops``/``seed``).
        jobs: Worker processes for the fan-out (``<= 1`` = in-process).
        mutate: Corrupt one recovered mapping entry per case (oracle
            self-test: violations are then *expected*).
        crash_indices: Explicit subset of boundaries to explore (used by
            sampled test runs); default is every boundary plus the clean
            power-off after the final op.
    """
    base = CrashCase(
        scheme=scheme,
        crash_index=0,
        seed=seed,
        num_ops=num_ops,
        ops=ops,
        mutate=mutate,
        device=device,
        checkpoint_interval=checkpoint_interval,
    )
    boundaries = count_boundaries(base)
    if crash_indices is None:
        indices = list(range(boundaries + 1))  # +1: clean cut at the end
    else:
        indices = list(crash_indices)
    cases = [replace(base, crash_index=k) for k in indices]
    results = run_tasks(_run_case, cases, jobs=jobs)
    report = CrashReport(
        scheme=scheme,
        seed=seed,
        num_ops=len(ops) if ops is not None else num_ops,
        boundaries=boundaries,
        results=results,
    )
    return report


def first_failure(case: CrashCase, boundaries: Optional[int] = None,
                  hint: Optional[int] = None) -> Optional[int]:
    """Smallest-effort search for a failing crash index of a workload.

    Checks the ``hint`` index first (during shrinking the previous failing
    index usually still fails), then scans every boundary in order.
    Returns the failing index or None when every boundary survives.
    """
    if boundaries is None:
        boundaries = count_boundaries(case)
    order: List[int] = []
    if hint is not None and 0 <= hint <= boundaries:
        order.append(hint)
    order.extend(k for k in range(boundaries + 1) if k != hint)
    for k in order:
        if not check_case(replace(case, crash_index=k)).ok:
            return k
    return None
