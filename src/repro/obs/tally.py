"""The one fold of the event stream: counts and time per (type, cause).

Every "where did the time go" answer in the stack is a :class:`Tally`:
each event adds one to its (event type, cause) cell and its ``dur_us`` to
the cell's time, and each channel-wait sample adds to :attr:`Tally.wait_us`.
The consumers differ only in where they cut the stream:

* the tracer's :class:`RunTotals` - one tally per scheme run;
* :class:`~repro.obs.series.SeriesCollector` - one tally per window of
  simulated time;
* :class:`~repro.obs.latency.OpLatencyRecorder` - one tally per host op,
  cut at each completion and at each fence.

The views below (flash time per cause, per latency bucket; event counts
per type) are the only place a flash op's (type, cause) is mapped to a
total.  Each consumer is a :class:`Cut`, so the tracer hands it the
channel-wait samples that plain sinks never see.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .events import FLASH_OP_TYPES, Cause, EventType, TraceEvent
from .sinks import TraceSink

#: Cause buckets of the per-op decomposition, in presentation order.
#: ``queueing`` is per-request wait (outside the service invariant);
#: ``unattributed`` is the explicitly-labeled residual.
BUCKETS = (
    "device_read",       # raw page reads serving the host directly
    "device_program",    # raw page programs serving the host directly
    "device_erase",      # raw erases charged to the host path
    "gc",                # garbage-collection relocation / erase stall
    "merge",             # log-block merge stall (BAST/FAST)
    "translation_read",  # translation-page reads (DFTL CMT / LazyFTL UMT miss)
    "mapping_commit",    # translation-page writes, GMT commits, conversions
    "recovery",          # crash-recovery scans / checkpointing
    "queueing",          # open-loop wait behind a busy device
    "unattributed",      # residual service time not covered by flash ops
)

#: (flash op type, cause) -> latency bucket.
_BUCKET_OF = {
    (type, cause): bucket
    for type, device, mapping in (
        (EventType.PAGE_READ, "device_read", "translation_read"),
        (EventType.PAGE_PROGRAM, "device_program", "mapping_commit"),
        (EventType.BLOCK_ERASE, "device_erase", "mapping_commit"),
    )
    for cause, bucket in (
        (Cause.HOST, device), (Cause.GC, "gc"), (Cause.MERGE, "merge"),
        (Cause.MAPPING, mapping), (Cause.CONVERT, "mapping_commit"),
        (Cause.RECOVERY, "recovery"),
    )
}


def bucket_of(event: TraceEvent) -> str:
    """Cause bucket of one flash-op event (see :data:`BUCKETS`)."""
    return _BUCKET_OF[event.type, event.cause]


class Tally:
    """Count and simulated µs per (event type, cause), plus channel wait.

    Only flash-op cells carry device time; the ``dur_us`` of host ops and
    span ends is tallied too but no view sums it.
    """

    __slots__ = ("cells", "wait_us")

    def __init__(self) -> None:
        #: (type, cause) -> [count, µs], in first-seen order.
        self.cells: Dict[Tuple[EventType, Cause], List[float]] = {}
        #: Channel wait (see ``Tracer.channel_wait``): outside every cell.
        self.wait_us = 0.0

    def add(self, event: TraceEvent) -> None:
        key = (event.type, event.cause)
        cell = self.cells.get(key)
        if cell is None:
            self.cells[key] = [1, event.dur_us]
        else:
            cell[0] += 1
            cell[1] += event.dur_us

    def merge(self, other: "Tally") -> None:
        """Add another tally's cells and wait into this one."""
        cells = self.cells
        for key, (count, spent) in other.cells.items():
            cell = cells.get(key)
            if cell is None:
                cells[key] = [count, spent]
            else:
                cell[0] += count
                cell[1] += spent
        self.wait_us += other.wait_us

    def clear(self) -> None:
        self.cells.clear()
        self.wait_us = 0.0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Events per type (type value -> count)."""
        out: Dict[str, int] = {}
        for (type, _), (count, _) in self.cells.items():
            out[type.value] = out.get(type.value, 0) + int(count)
        return out

    def count(self, type: EventType, *causes: Cause) -> int:
        """Events of one type, from the given causes (default: any)."""
        return sum(
            int(count) for (t, cause), (count, _) in self.cells.items()
            if t is type and (not causes or cause in causes)
        )

    def by_cause(self) -> Dict[str, float]:
        """Flash time per cause (cause value -> µs)."""
        out: Dict[str, float] = {}
        for (type, cause), (_, spent) in self.cells.items():
            if type in FLASH_OP_TYPES:
                out[cause.value] = out.get(cause.value, 0.0) + spent
        return out

    def by_bucket(self) -> Dict[str, float]:
        """Flash time per latency bucket (see :data:`BUCKETS`)."""
        out: Dict[str, float] = {}
        for key, (_, spent) in self.cells.items():
            bucket = _BUCKET_OF.get(key)
            if bucket is not None:
                out[bucket] = out.get(bucket, 0.0) + spent
        return out


class Cut(TraceSink):
    """A sink that folds the stream into tallies it cuts at its own points.

    Beside every event (:meth:`emit`), the tracer hands a cut every
    channel-wait sample (:meth:`wait`).
    """

    def wait(self, scheme: str, ts: float, wait_us: float) -> None:
        raise NotImplementedError


class RunTotals(Cut):
    """One tally per scheme run: the tracer's ``attribution``.

    Also what :func:`repro.analysis.attribute_trace` folds a JSONL trace
    into, so offline and online attribution are the same fold.
    """

    def __init__(self) -> None:
        self.tallies: Dict[str, Tally] = {}

    def tally(self, scheme: str) -> Tally:
        tally = self.tallies.get(scheme)
        if tally is None:
            tally = self.tallies[scheme] = Tally()
        return tally

    def emit(self, event: TraceEvent) -> None:
        tally = self.tallies.get(event.scheme)
        if tally is None:
            tally = self.tally(event.scheme)
        tally.add(event)

    def wait(self, scheme: str, ts: float, wait_us: float) -> None:
        self.tally(scheme).wait_us += wait_us

    def schemes(self) -> List[str]:
        return sorted(self.tallies)

    def scheme_summary(self, scheme: str) -> Optional[Dict[str, object]]:
        """Per-cause flash time and event counts (None if never seen)."""
        tally = self.tallies.get(scheme)
        if tally is None:
            return None
        by_cause = tally.by_cause()
        counts = tally.counts()
        return {
            "time_by_cause_us": by_cause,
            "total_us": sum(by_cause.values()),
            "events": dict(sorted(counts.items())),
            "merges": counts.get(EventType.MERGE_START.value, 0),
            "converts": counts.get(EventType.CONVERT.value, 0),
            "gc_runs": counts.get(EventType.GC_START.value, 0),
        }
