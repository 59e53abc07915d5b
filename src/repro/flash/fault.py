"""Power-loss fault injection for crash-recovery experiments.

LazyFTL's recovery design is exercised by cutting power at arbitrary points
in a workload and verifying that the FTL rebuilds a consistent mapping from
flash-resident state (mapping blocks, checkpoints, OOB scans).  The
:class:`PowerFault` controller decides *when* the device dies; the chip
consults it before every state-changing operation.

Faults trip *between* operations: programs and erases are atomic at our
modelling granularity, which matches the page-program atomicity assumption
of the paper's basic recovery design.

Every trip is replayable and reportable: the chip passes the target of the
operation it was about to perform (the program's ppn or the erase's pbn),
and the fault records it together with the armed op index, so a failing
crash-consistency run can name the exact boundary it died at (see
:mod:`repro.checks.crashmc`).
"""

from __future__ import annotations

from typing import Optional, Tuple


class PowerFault:
    """Schedules a power loss after a given number of operations.

    The countdown can be armed against program operations only (the usual
    choice: crashes matter when they interleave with writes), against all
    state-changing operations (programs + erases), or - for the crash
    model checker - at an exact state-changing-op *index*, which makes the
    trip point a deterministic function of the workload.
    """

    def __init__(self) -> None:
        self._remaining: Optional[int] = None
        self._count_erases = False
        self.tripped = False
        #: Op count the last ``arm_*`` call requested (None before arming).
        self.armed_index: Optional[int] = None
        #: ``("program", ppn)`` / ``("erase", pbn)`` of the op the last
        #: trip aborted; survives :meth:`disarm` (and hence
        #: ``flash.power_on()``) so post-crash recovery code can still
        #: report the trip site.  Cleared on the next ``arm_*`` call.
        self.trip_site: Optional[Tuple[str, int]] = None
        #: State-changing-op index the last trip occurred at (the number
        #: of programs/erases that completed between arming and the trip).
        self.trip_op_index: Optional[int] = None

    def _arm(self, n: int, count_erases: bool) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self._remaining = n
        self._count_erases = count_erases
        self.tripped = False
        self.armed_index = n
        self.trip_site = None
        self.trip_op_index = None

    def arm_after_programs(self, n: int) -> None:
        """Trip the fault just before the ``n+1``-th program from now."""
        self._arm(n, count_erases=False)

    def arm_at_op_index(self, index: int) -> None:
        """Trip exactly before the state-changing op with this 0-based index.

        Counting starts at this call and covers *both* programs and erases,
        so for a deterministic workload the boundary the device dies at is
        itself deterministic: index ``k`` kills power just before the
        ``k+1``-th program-or-erase the workload would perform.  This is
        the arming mode the crash model checker enumerates with.
        """
        self._arm(index, count_erases=True)

    def disarm(self) -> None:
        """Cancel any pending fault.

        Trip history - ``tripped``, ``trip_op_index``, ``trip_site`` - is
        preserved: ``flash.power_on()`` disarms, and recovery code must
        still be able to ask what killed the device.  Only the next
        ``arm_*`` call clears history.
        """
        self._remaining = None

    @property
    def armed(self) -> bool:
        return self._remaining is not None and not self.tripped

    def on_program(self, site: Optional[int] = None) -> bool:
        """Account one program; return True if the device must die now.

        ``site`` is the ppn the chip was about to program, recorded as the
        trip site when the fault fires.
        """
        return self._tick("program", site)

    def on_erase(self, site: Optional[int] = None) -> bool:
        """Account one erase; return True if the device must die now.

        ``site`` is the pbn the chip was about to erase.
        """
        if not self._count_erases:
            return False
        return self._tick("erase", site)

    def _tick(self, kind: str, site: Optional[int]) -> bool:
        if self._remaining is None or self.tripped:
            return False
        if self._remaining == 0:
            self.tripped = True
            self._remaining = None
            self.trip_op_index = self.armed_index
            if site is not None:
                self.trip_site = (kind, site)
            return True
        self._remaining -= 1
        return False

    def trip_report(self) -> str:
        """Human-readable description of the last trip (for reproducers).

        Empty string when the fault never tripped, so callers can use the
        report directly as an optional field.
        """
        if self.trip_op_index is None:
            return ""
        if self.trip_site is None:
            return f"power cut at op index {self.trip_op_index}"
        kind, site = self.trip_site
        unit = "ppn" if kind == "program" else "pbn"
        return (
            f"power cut at op index {self.trip_op_index} "
            f"(before {kind} of {unit} {site})"
        )
