"""Multi-channel / multi-die NAND device with overlapped command timing.

:class:`ParallelNandFlash` keeps one *busy-until* clock per parallel unit
(a (channel, die) pair; see :meth:`FlashGeometry.parallel_units`).  Raw
operations on different units overlap in simulated time; operations on
the same unit serialize behind that unit's clock.  Functionally the
device is identical to :class:`NandFlash` - page state, error checking,
stats counting and power-loss injection are all inherited - only the
*latency* returned to the FTL changes.

Timing model
------------

Clocks are relative to the start of the current host operation
(:meth:`begin_host_op`, called by the FTL before servicing a request).
Every raw op on unit ``u`` computes::

    start  = busy[u]                  (op_end if serialize_timing)
    end    = start + raw_latency
    busy[u] = end
    delta  = max(0, end - op_end)     # marginal makespan contribution
    op_end = max(op_end, end)

and returns ``delta`` instead of the raw latency.  Summing the returned
latencies over one host op therefore yields the *makespan* of its flash
ops under perfect per-unit command queueing - exactly what the FCFS
simulator and the PR 6 latency decomposition expect, and at one unit
``delta == raw`` always, so a 1x1x1 parallel device is bit-identical to
the serial one.  The model assumes an op may start as soon as its unit
is free (no data-dependency stalls between a GC read and its paired
program) - the optimistic end of real controller pipelines.

``FlashStats`` continue to accrue *raw* per-op latencies: total device
work is independent of overlap, so wear/energy accounting matches a
serial run bit for bit.  The overlap win shows up only in the returned
service latencies (and thus ``device_busy_us`` / ops/s).

The *channel wait* of an op is how much longer its unit was busy than
the least-busy unit when the op was issued - the time lost to stripe
imbalance.  It is reported to an attached tracer via
``tracer.channel_wait`` and lands outside the service-time
decomposition (like host-side queueing), never inside the cause
buckets.

The batch-replay engine (:func:`repro.perf.batch.engine_for`) declines
this device: its epoch timing kernels model one clock.

``serialize_timing=True`` forces every op to start at the current op
makespan instead of its unit clock, turning timing back into the serial
model while keeping placement untouched - the lever the property tests
use to separate placement determinism from timing overlap.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..obs.events import EventType
from .chip import NandFlash
from .errors import BadBlockError
from .geometry import FlashGeometry
from .oob import OOBData
from .timing import SLC_TIMING, TimingModel


class ParallelNandFlash(NandFlash):
    """NAND device with per-unit command queues and overlapped timing."""

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: TimingModel = SLC_TIMING,
        enforce_sequential: bool = True,
        endurance: Optional[int] = None,
        initial_bad_blocks: Iterable[int] = (),
    ):
        super().__init__(
            geometry, timing, enforce_sequential, endurance,
            initial_bad_blocks,
        )
        self._units = self.geometry.parallel_units
        self._unit_busy: List[float] = [0.0] * self._units
        self._op_end = 0.0
        #: Force serial timing (placement unchanged); property-test lever.
        self.serialize_timing = False
        #: Cumulative raw device time per parallel unit (load balance).
        self.unit_busy_us: List[float] = [0.0] * self._units
        #: Cumulative time ops waited on their unit beyond the least-busy
        #: one (stripe imbalance); outside the service decomposition.
        self.channel_wait_us = 0.0
        self.host_ops = 0

    @property
    def parallel_units(self) -> int:
        return self._units

    # ------------------------------------------------------------------
    # Host-op boundary and the busy-until clocks
    # ------------------------------------------------------------------
    def begin_host_op(self) -> None:
        """Reset the relative unit clocks at a host request boundary.

        Striping FTLs call this before servicing each host op; all the
        op's flash commands then overlap against a common origin and the
        summed deltas equal the op's makespan.  Code that never calls it
        (recovery scans, non-striping FTLs) simply keeps one continuous
        pipeline, which is still deterministic and conservative-ish but
        lets work from consecutive host ops overlap.
        """
        busy = self._unit_busy
        for unit in range(self._units):
            busy[unit] = 0.0
        self._op_end = 0.0
        self.host_ops += 1

    def _advance(self, unit: int, raw_us: float) -> Tuple[float, float]:
        """Advance unit ``unit`` by ``raw_us``; return ``(delta, wait)``."""
        busy = self._unit_busy
        if self.serialize_timing:
            start = self._op_end
            wait = 0.0
        else:
            start = busy[unit]
            wait = start - min(busy)
        end = start + raw_us
        busy[unit] = end
        op_end = self._op_end
        delta = end - op_end if end > op_end else 0.0
        if end > op_end:
            self._op_end = end
        self.unit_busy_us[unit] += raw_us
        self.channel_wait_us += wait
        return delta, wait

    def _trace_op(self, tracer, event, addr, delta, wait, lpn=None) -> None:
        if wait > 0.0:
            tracer.channel_wait(wait)
        tracer.flash_op(event, addr, delta, lpn=lpn)

    # ------------------------------------------------------------------
    # Raw operations: inherit checks/state, rewrite the returned latency
    # ------------------------------------------------------------------
    # Each override detaches the tracer around the base call so the base
    # class cannot emit the *raw* latency, then emits the overlap-adjusted
    # delta itself - keeping the sum-of-parts decomposition invariant
    # intact.  Exceptions restore the tracer and charge no unit time,
    # matching the base class (which raises before tracing), except for
    # the endurance-failure erase below.

    def read_page(self, ppn: int) -> Tuple[Any, Optional[OOBData], float]:
        tracer = self.tracer
        self.tracer = None
        try:
            data, oob, raw = super().read_page(ppn)
        finally:
            self.tracer = tracer
        unit = (ppn // self.geometry.pages_per_block) % self._units
        delta, wait = self._advance(unit, raw)
        if tracer is not None:
            self._trace_op(tracer, EventType.PAGE_READ, ppn, delta, wait)
        return data, oob, delta

    def probe_page(self, ppn: int) -> Tuple[Optional[OOBData], float]:
        tracer = self.tracer
        self.tracer = None
        try:
            oob, raw = super().probe_page(ppn)
        finally:
            self.tracer = tracer
        unit = (ppn // self.geometry.pages_per_block) % self._units
        delta, wait = self._advance(unit, raw)
        if tracer is not None:
            self._trace_op(tracer, EventType.PAGE_READ, ppn, delta, wait)
        return oob, delta

    def program_page(
        self, ppn: int, data: Any, oob: Optional[OOBData] = None
    ) -> float:
        tracer = self.tracer
        self.tracer = None
        try:
            raw = super().program_page(ppn, data, oob)
        finally:
            self.tracer = tracer
        unit = (ppn // self.geometry.pages_per_block) % self._units
        delta, wait = self._advance(unit, raw)
        if tracer is not None:
            self._trace_op(
                tracer, EventType.PAGE_PROGRAM, ppn, delta, wait,
                lpn=oob.lpn if oob is not None else None,
            )
        return delta

    def program_run(
        self,
        ppn: int,
        datas: Sequence[Any],
        oobs: Sequence[Optional[OOBData]],
    ) -> float:
        # Per-unit clocks advance op by op: no slice shortcut.
        return self._program_each(ppn, datas, oobs)

    def erase_block(self, pbn: int) -> float:
        tracer = self.tracer
        self.tracer = None
        stats = self.stats
        erases_before = stats.block_erases
        try:
            raw = super().erase_block(pbn)
        except BadBlockError:
            # The endurance-exceeded erase charges stats (and, in the
            # base class, traces) before raising: mirror that by
            # advancing the unit clock for the attempted erase.  The
            # is-bad precheck raises without charging - no advance.
            if stats.block_erases != erases_before:
                delta, wait = self._advance(
                    pbn % self._units, self.timing.block_erase_us
                )
                if tracer is not None:
                    self._trace_op(
                        tracer, EventType.BLOCK_ERASE, pbn, delta, wait
                    )
            raise
        finally:
            self.tracer = tracer
        delta, wait = self._advance(pbn % self._units, raw)
        if tracer is not None:
            self._trace_op(tracer, EventType.BLOCK_ERASE, pbn, delta, wait)
        return delta

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def parallel_summary(self) -> dict:
        """Per-unit load and imbalance counters (all simulated us)."""
        total = sum(self.unit_busy_us)
        return {
            "units": self._units,
            "channels": self.geometry.channels,
            "dies": self.geometry.dies,
            "unit_busy_us": list(self.unit_busy_us),
            "busy_imbalance": (
                max(self.unit_busy_us) / (total / self._units)
                if total > 0 else 0.0
            ),
            "channel_wait_us": self.channel_wait_us,
            "host_ops": self.host_ops,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.geometry
        return (
            f"ParallelNandFlash({g.num_blocks} blocks x "
            f"{g.pages_per_block} pages x {g.page_size}B, "
            f"{g.channels}ch x {g.dies}die, ops={self.stats.total_ops})"
        )
