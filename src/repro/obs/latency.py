"""Per-operation latency decomposition: make every microsecond attributable.

The attribution sink answers "where did the *run's* time go"; this module
answers the finer question the paper's tail-latency discussion actually
turns on: **where did each host operation's time go?**  A slow p999 write
under FAST is a full merge; under DFTL it is a burst of translation-page
reads; under LazyFTL it should be at most one GC pass plus a batched
commit.  The :class:`OpLatencyRecorder` splits every logical read / write
/ trim into *cause buckets* using the cause-tagged flash-op events the
tracer already emits, and feeds each op's end-to-end service latency into
a :class:`~repro.obs.metrics.LatencyDistribution` per op class, so exact
p50/p95/p99/p999 figures carry a per-cause breakdown.

Accounting contract (the flashsan-checked invariant):

* every flash op emitted between two host-op completions belongs to the
  later host op, **except** time the simulator explicitly fences off as
  idle-time background work (:meth:`OpLatencyRecorder.fence`);
* for every host op, ``sum(cause buckets) + unattributed == dur_us``
  within float tolerance - the remainder is *explicitly labeled*
  ``unattributed``, never silently dropped;
* queueing delay (open-loop waiting behind a busy device) is reported as
  its own bucket per op class but sits *outside* the service-time
  invariant: ``response = queueing + service``.

Zero overhead when detached: the recorder only ever runs behind the
tracer's existing ``if ... is not None`` guards.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .events import FLASH_OP_TYPES, Cause, EventType, TraceEvent
from .metrics import LatencyDistribution

#: Cause buckets of the per-op decomposition, in presentation order.
#: ``queueing`` is per-request wait (outside the service invariant);
#: ``unattributed`` is the explicitly-labeled residual.
BUCKETS = (
    "device_read",       # raw page reads serving the host directly
    "device_program",    # raw page programs serving the host directly
    "device_erase",      # raw erases charged to the host path
    "gc",                # garbage-collection relocation / erase stall
    "merge",             # log-block merge stall (BAST/FAST/LAST/NFTL)
    "translation_read",  # translation-page reads (DFTL CMT / LazyFTL UMT miss)
    "mapping_commit",    # translation-page writes, GMT commits, conversions
    "recovery",          # crash-recovery scans / checkpointing
    "queueing",          # open-loop wait behind a busy device
    "unattributed",      # residual service time not covered by flash ops
)

#: Op classes tracked by the recorder (plus the derived ``overall``).
OP_CLASSES = ("read", "write", "trim")

_DEVICE_BUCKET = {
    EventType.PAGE_READ: "device_read",
    EventType.PAGE_PROGRAM: "device_program",
    EventType.BLOCK_ERASE: "device_erase",
}

_HOST_CLASS = {
    EventType.HOST_READ: "read",
    EventType.HOST_WRITE: "write",
    EventType.HOST_TRIM: "trim",
}


def bucket_of(event: TraceEvent) -> str:
    """Cause bucket of one flash-op event (see :data:`BUCKETS`)."""
    cause = event.cause
    if cause is Cause.HOST:
        return _DEVICE_BUCKET[event.type]
    if cause is Cause.GC:
        return "gc"
    if cause is Cause.MERGE:
        return "merge"
    if cause is Cause.MAPPING:
        return ("translation_read" if event.type is EventType.PAGE_READ
                else "mapping_commit")
    if cause is Cause.CONVERT:
        return "mapping_commit"
    return "recovery"


class _ClassAggregate:
    """Per-op-class accumulation: histogram + cause totals + worst ops."""

    __slots__ = ("hist", "by_cause", "unattributed_us", "queue_us",
                 "queue_hist", "channel_wait_us", "total_us", "slowest",
                 "_seq")

    #: Worst ops kept per class for the tail-cause breakdown.
    TOP_K = 12

    def __init__(self) -> None:
        self.hist = LatencyDistribution()
        self.by_cause: Dict[str, float] = {}
        self.unattributed_us = 0.0
        self.queue_us = 0.0
        self.queue_hist = LatencyDistribution()
        # Total per-unit queueing observed during this class's host ops
        # on a multi-channel device (see Tracer.channel_wait); like
        # host queueing it sits outside the service decomposition.  The
        # per-sample distribution lives at scheme level
        # (_SchemeLatency.channel_wait_hist) because samples arrive per
        # raw flash op, before the op class is known.
        self.channel_wait_us = 0.0
        self.total_us = 0.0
        # Min-heap of (dur_us, seq, parts) - the K slowest ops seen.
        self.slowest: List[Tuple[float, int, Dict[str, float]]] = []
        self._seq = 0

    def record(self, dur_us: float, parts: Dict[str, float],
               unattributed: float, channel_wait_us: float = 0.0) -> None:
        self.hist.add(dur_us)
        self.total_us += dur_us
        for bucket, spent in parts.items():
            self.by_cause[bucket] = self.by_cause.get(bucket, 0.0) + spent
        self.unattributed_us += unattributed
        self.channel_wait_us += channel_wait_us
        self._seq += 1
        entry = (dur_us, self._seq, dict(parts))
        if len(self.slowest) < self.TOP_K:
            heapq.heappush(self.slowest, entry)
        elif dur_us > self.slowest[0][0]:
            heapq.heapreplace(self.slowest, entry)

    def attributed_fraction(self) -> float:
        if self.total_us <= 0.0:
            return 1.0
        return max(0.0, 1.0 - self.unattributed_us / self.total_us)

    def as_dict(self) -> Dict[str, object]:
        worst = sorted(self.slowest, key=lambda e: -e[0])
        hist = self.hist
        return {
            "count": hist.count,
            "mean_us": hist.mean,
            "min_us": hist.min,
            "p50_us": hist.percentile(50),
            "p95_us": hist.percentile(95),
            "p99_us": hist.percentile(99),
            "p999_us": hist.percentile(99.9),
            "max_us": hist.max,
            "total_us": hist.total,
            "by_cause_us": {
                b: round(v, 3) for b, v in sorted(self.by_cause.items())
            },
            "unattributed_us": round(self.unattributed_us, 3),
            "attributed_fraction": self.attributed_fraction(),
            "queueing_us": round(self.queue_us, 3),
            "queueing_p99_us": self.queue_hist.percentile(99),
            "channel_wait_us": round(self.channel_wait_us, 3),
            "slowest": [
                {
                    "dur_us": round(dur, 3),
                    "by_cause_us": {
                        b: round(v, 3) for b, v in sorted(parts.items())
                    },
                }
                for dur, _, parts in worst
            ],
        }


class _SchemeLatency:
    """All per-op accounting for one scheme."""

    __slots__ = ("classes", "overall", "outside_us",
                 "outside_channel_wait_us", "channel_wait_hist",
                 "checked_ops", "violations", "max_residual_us")

    def __init__(self) -> None:
        self.classes: Dict[str, _ClassAggregate] = {}
        self.overall = _ClassAggregate()
        #: Flash time fenced off as outside any host op (idle-time
        #: background work), per bucket.
        self.outside_us: Dict[str, float] = {}
        #: Channel wait observed during fenced-off background work.
        self.outside_channel_wait_us = 0.0
        #: Per-raw-op distribution of channel waits (how long a flash
        #: command sat in its unit's queue while another unit was free);
        #: only ops that actually waited land here, so serial devices
        #: leave it empty.
        self.channel_wait_hist = LatencyDistribution()
        self.checked_ops = 0
        self.violations = 0
        self.max_residual_us = 0.0


class LastOp:
    """The most recent op's decomposition (exposed for invariant tests)."""

    __slots__ = ("op_class", "dur_us", "parts", "unattributed_us",
                 "residual_us")

    def __init__(self, op_class: str, dur_us: float,
                 parts: Dict[str, float], unattributed_us: float,
                 residual_us: float):
        self.op_class = op_class
        self.dur_us = dur_us
        self.parts = parts
        self.unattributed_us = unattributed_us
        self.residual_us = residual_us

    def parts_total(self) -> float:
        """Sum of all labeled buckets including ``unattributed``."""
        return sum(self.parts.values()) + self.unattributed_us


class OpLatencyRecorder:
    """Streams tracer events into per-op cause-bucket decompositions.

    Attach via ``Tracer(latency=OpLatencyRecorder())``; the tracer then
    forwards every event (:meth:`observe`), every idle-work fence
    (:meth:`fence`) and every queueing delay (:meth:`note_queue_delay`).
    State is keyed by scheme, so one recorder can span a whole
    ``compare_schemes`` run exactly like the attribution sink.
    """

    def __init__(self, tolerance_us: float = 1e-3):
        #: Absolute slack allowed between an op's charged latency and the
        #: sum of flash time observed during it, before the op counts as
        #: an invariant violation (float summation-order dust only).
        self.tolerance_us = tolerance_us
        self._schemes: Dict[str, _SchemeLatency] = {}
        self._pending: Dict[str, float] = {}
        self._pending_wait = 0.0
        self._current: Optional[str] = None
        self.last_op: Optional[LastOp] = None

    # ------------------------------------------------------------------
    # Event intake (driven by the Tracer)
    # ------------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        if event.scheme != self._current:
            self._switch(event.scheme)
        event_type = event.type
        if event_type in FLASH_OP_TYPES:
            bucket = bucket_of(event)
            self._pending[bucket] = (
                self._pending.get(bucket, 0.0) + event.dur_us
            )
            return
        op_class = _HOST_CLASS.get(event_type)
        if op_class is not None:
            self._complete(op_class, event.dur_us)

    def fence(self, scheme: str) -> None:
        """Mark pending flash time as outside any host op (idle work)."""
        if scheme != self._current:
            self._switch(scheme)
        if not self._pending and not self._pending_wait:
            return
        state = self._state(scheme)
        for bucket, spent in self._pending.items():
            state.outside_us[bucket] = (
                state.outside_us.get(bucket, 0.0) + spent
            )
        self._pending.clear()
        if self._pending_wait:
            state.outside_channel_wait_us += self._pending_wait
            self._pending_wait = 0.0

    def note_queue_delay(self, scheme: str, is_write: bool,
                         wait_us: float) -> None:
        """Record open-loop wait (response = queueing + service)."""
        state = self._state(scheme)
        for agg in (self._class(state, "write" if is_write else "read"),
                    state.overall):
            agg.queue_us += wait_us
            agg.queue_hist.add(wait_us)

    def note_channel_wait(self, scheme: str, wait_us: float) -> None:
        """Record one raw op's wait behind its busy parallel unit.

        Samples arrive per raw flash op, before the op class is known:
        each lands in the scheme-level distribution immediately, while
        the total buffers like the cause buckets and folds into the
        current host op's class accumulator at completion - outside the
        service invariant (the traced ``dur_us`` already absorbs the
        wait).
        """
        if scheme != self._current:
            self._switch(scheme)
        self._pending_wait += wait_us
        self._state(scheme).channel_wait_hist.add(wait_us)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _switch(self, scheme: str) -> None:
        # A scheme change mid-stream (compare_schemes) fences whatever
        # the previous scheme left pending so it never leaks across.
        if self._current is not None and self._pending:
            self.fence(self._current)
        self._current = scheme
        self._state(scheme)

    def _state(self, scheme: str) -> _SchemeLatency:
        state = self._schemes.get(scheme)
        if state is None:
            state = self._schemes[scheme] = _SchemeLatency()
        return state

    @staticmethod
    def _class(state: _SchemeLatency, op_class: str) -> _ClassAggregate:
        agg = state.classes.get(op_class)
        if agg is None:
            agg = state.classes[op_class] = _ClassAggregate()
        return agg

    def _complete(self, op_class: str, dur_us: float) -> None:
        state = self._state(self._current or "")
        parts = {b: v for b, v in self._pending.items() if v > 0.0}
        self._pending.clear()
        observed = sum(parts.values())
        residual = dur_us - observed
        state.checked_ops += 1
        if abs(residual) > self.tolerance_us + 1e-9 * dur_us:
            if residual < 0.0:
                # More flash time than the op was charged: fencing was
                # missed or a scheme mis-charged - an invariant breach.
                state.violations += 1
        if abs(residual) > state.max_residual_us:
            state.max_residual_us = abs(residual)
        unattributed = residual if residual > 0.0 else 0.0
        wait = self._pending_wait
        if wait:
            self._pending_wait = 0.0
        self._class(state, op_class).record(dur_us, parts, unattributed,
                                            wait)
        state.overall.record(dur_us, parts, unattributed, wait)
        self.last_op = LastOp(op_class, dur_us, parts, unattributed,
                              residual)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def schemes(self) -> List[str]:
        return sorted(self._schemes)

    def invariants(self) -> Dict[str, Dict[str, float]]:
        """Per-scheme invariant verdicts (consumed by flashsan)."""
        return {
            scheme: {
                "checked_ops": state.checked_ops,
                "violations": state.violations,
                "max_residual_us": state.max_residual_us,
            }
            for scheme, state in sorted(self._schemes.items())
        }

    def scheme_summary(self, scheme: str) -> Optional[Dict[str, object]]:
        state = self._schemes.get(scheme)
        if state is None:
            return None
        classes = {
            op_class: agg.as_dict()
            for op_class, agg in sorted(state.classes.items())
        }
        classes["overall"] = state.overall.as_dict()
        return {
            "classes": classes,
            "outside_us": {
                b: round(v, 3) for b, v in sorted(state.outside_us.items())
            },
            "channel_wait": {
                "samples": state.channel_wait_hist.count,
                "total_us": round(state.channel_wait_hist.total, 3),
                "p50_us": state.channel_wait_hist.percentile(50),
                "p99_us": state.channel_wait_hist.percentile(99),
                "outside_us": round(state.outside_channel_wait_us, 3),
            },
            "invariant": {
                "checked_ops": state.checked_ops,
                "violations": state.violations,
                "max_residual_us": state.max_residual_us,
            },
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            scheme: self.scheme_summary(scheme)
            for scheme in self.schemes()
        }
