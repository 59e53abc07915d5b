"""Typed trace events and the cause taxonomy.

Every interesting action in the simulator - a host operation, a raw flash
operation, a GC run, a log-block merge, a LazyFTL conversion - is described
by one :class:`TraceEvent`.  Events carry the *simulated* timestamp at
which they begin, the scheme that produced them, and a **cause** tag naming
the activity on whose behalf the work happened (host / gc / merge / mapping
/ convert / recovery).  The cause tag is what turns a flat flash-operation
log into the "where did the time go" attribution the paper's
merge-overhead discussion implies.

The JSONL wire format is one ``TraceEvent.to_record()`` object per line;
``tools/check_trace_schema.py`` validates it and
:mod:`repro.analysis.attribution` consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

#: Version stamp of the JSONL record layout.
SCHEMA_VERSION = 1


class Cause(str, Enum):
    """Why a flash operation (or span) happened."""

    HOST = "host"          #: directly serving a host read/write
    GC = "gc"              #: garbage-collection relocation / erase
    MERGE = "merge"        #: log-block merge (BAST/FAST)
    MAPPING = "mapping"    #: translation-page traffic on the host path
    CONVERT = "convert"    #: LazyFTL UBA/CBA block conversion (GMT commit)
    RECOVERY = "recovery"  #: crash-recovery scans and checkpointing


class EventType(str, Enum):
    """The event taxonomy (see docs/INTERNALS.md, "Observability").

    ``MapRead`` / ``MapWrite`` are emitted by the flash device alone,
    right after the ``PageRead`` / ``PageProgram`` of a page whose OOB
    kind is ``MAPPING``, with that OOB's ``lpn`` (the tvpn): every
    translation-page read or write is marked once, whoever issued it.
    """

    HOST_READ = "HostRead"        #: one page-granular host read, at completion
    HOST_WRITE = "HostWrite"      #: one page-granular host write, at completion
    HOST_TRIM = "HostTrim"        #: one page-granular host discard/trim
    GC_START = "GCStart"          #: a GC pass begins (victim chosen)
    GC_END = "GCEnd"              #: the GC pass finished (dur_us = span)
    MERGE_START = "MergeStart"    #: a log-block merge begins
    MERGE_END = "MergeEnd"        #: the merge finished (dur_us = span)
    CONVERT = "Convert"           #: a LazyFTL block conversion completed
    BATCH_COMMIT = "BatchCommit"  #: a batched GMT commit completed
    MAP_READ = "MapRead"          #: a translation page was read (lpn = tvpn)
    MAP_WRITE = "MapWrite"        #: a translation page was written (lpn = tvpn)
    PAGE_READ = "PageRead"        #: raw flash page read
    PAGE_PROGRAM = "PageProgram"  #: raw flash page program
    BLOCK_ERASE = "BlockErase"    #: raw flash block erase (ppn = pbn)


#: Event types that carry simulated device time in ``dur_us``.
FLASH_OP_TYPES = frozenset(
    (EventType.PAGE_READ, EventType.PAGE_PROGRAM, EventType.BLOCK_ERASE)
)

#: Host-operation completion events (one per logical page op).
HOST_OP_TYPES = frozenset(
    (EventType.HOST_READ, EventType.HOST_WRITE, EventType.HOST_TRIM)
)

#: Start/end pairs that must nest and balance per scheme.
SPAN_PAIRS = {
    EventType.GC_START: EventType.GC_END,
    EventType.MERGE_START: EventType.MERGE_END,
}


@dataclass
class TraceEvent:
    """One observation.

    Attributes:
        type: What happened (taxonomy above).
        ts: Simulated time (microseconds) at which it happened.  Flash ops
            are stamped when they *begin*; host ops and span ends when they
            complete.
        scheme: FTL scheme name that produced the event.
        cause: Activity the work is attributed to.
        lpn / ppn: Logical / physical page involved, when meaningful (for
            ``MapRead``/``MapWrite`` the ``lpn`` field holds the tvpn; for
            ``BlockErase`` the ``ppn`` field holds the block number).
        dur_us: Simulated duration - the op latency for flash ops, the
            span length for ``GCEnd``/``MergeEnd``/``Convert``.
        extra: Free-form per-type payload (merge kind, entries committed).
    """

    type: EventType
    ts: float
    scheme: str
    cause: Cause
    lpn: Optional[int] = None
    ppn: Optional[int] = None
    dur_us: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """Flat JSON-serialisable record (one JSONL line)."""
        record: Dict[str, Any] = {
            "type": self.type.value,
            "ts": round(self.ts, 3),
            "scheme": self.scheme,
            "cause": self.cause.value,
        }
        if self.lpn is not None:
            record["lpn"] = self.lpn
        if self.ppn is not None:
            record["ppn"] = self.ppn
        # Flash ops always carry their duration: a fully overlapped op
        # on a multi-channel device adds 0.0 to the makespan.
        if self.dur_us or self.type in FLASH_OP_TYPES:
            record["dur_us"] = round(self.dur_us, 3)
        if self.extra:
            record.update(self.extra)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_record` (extra keys land in ``extra``)."""
        known = {"type", "ts", "scheme", "cause", "lpn", "ppn", "dur_us"}
        return cls(
            type=EventType(record["type"]),
            ts=float(record["ts"]),
            scheme=record["scheme"],
            cause=Cause(record["cause"]),
            lpn=record.get("lpn"),
            ppn=record.get("ppn"),
            dur_us=float(record.get("dur_us", 0.0)),
            extra={k: v for k, v in record.items() if k not in known},
        )
