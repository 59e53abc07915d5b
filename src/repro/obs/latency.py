"""Per-operation latency decomposition: make every microsecond attributable.

The tracer's run totals answer "where did the *run's* time go"; this module
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

The per-op part is a cut of the one fold (:mod:`repro.obs.tally`): the
flash ops between two completions fold into a pending tally, read out
per bucket.  Zero overhead when detached: the recorder only ever runs behind
the tracer's existing ``if ... is not None`` guards.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from .events import FLASH_OP_TYPES, EventType, TraceEvent
from .metrics import LatencyDistribution
from .tally import Cut, Tally

_HOST_CLASS = {
    EventType.HOST_READ: "read",
    EventType.HOST_WRITE: "write",
    EventType.HOST_TRIM: "trim",
}


class _ClassAggregate:
    """Per-op-class accumulation: histogram + op tallies + worst ops."""

    __slots__ = ("hist", "tally", "unattributed_us", "queue_us",
                 "queue_hist", "slowest", "_seq")

    #: Worst ops kept per class for the tail-cause breakdown.
    TOP_K = 12

    def __init__(self) -> None:
        self.hist = LatencyDistribution()
        # The class's host ops' pending tallies, summed: its cause
        # buckets and its channel wait (which, like host queueing, sits
        # outside the service decomposition).
        self.tally = Tally()
        self.unattributed_us = 0.0
        self.queue_us = 0.0
        self.queue_hist = LatencyDistribution()
        # Min-heap of (dur_us, seq, parts) - the K slowest ops seen.
        self.slowest: List[Tuple[float, int, Dict[str, float]]] = []
        self._seq = 0

    def record(self, dur_us: float, parts: Dict[str, float],
               unattributed: float, op: Tally) -> None:
        self.hist.add(dur_us)
        self.tally.merge(op)
        self.unattributed_us += unattributed
        self._seq += 1
        entry = (dur_us, self._seq, parts)
        if len(self.slowest) < self.TOP_K:
            heapq.heappush(self.slowest, entry)
        elif dur_us > self.slowest[0][0]:
            heapq.heapreplace(self.slowest, entry)

    def attributed_fraction(self) -> float:
        total_us = self.hist.total
        if total_us <= 0.0:
            return 1.0
        return max(0.0, 1.0 - self.unattributed_us / total_us)

    def as_dict(self) -> Dict[str, object]:
        worst = sorted(self.slowest, key=lambda e: -e[0])
        hist = self.hist
        return {
            **hist.summary(),
            "min_us": hist.min,
            "total_us": hist.total,
            "by_cause_us": {
                b: round(v, 3)
                for b, v in sorted(self.tally.by_bucket().items()) if v > 0.0
            },
            "unattributed_us": round(self.unattributed_us, 3),
            "attributed_fraction": self.attributed_fraction(),
            "queueing_us": round(self.queue_us, 3),
            "queueing_p99_us": self.queue_hist.percentile(99),
            "channel_wait_us": round(self.tally.wait_us, 3),
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

    __slots__ = ("classes", "overall", "outside", "channel_wait_hist",
                 "checked_ops", "violations", "max_residual_us")

    def __init__(self) -> None:
        self.classes: Dict[str, _ClassAggregate] = {}
        self.overall = _ClassAggregate()
        #: What was fenced off as outside any host op (idle-time
        #: background work): its flash time and channel wait.
        self.outside = Tally()
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


class OpLatencyRecorder(Cut):
    """Cuts the event stream at every host op into cause-bucket parts.

    Attach via ``Tracer(latency=OpLatencyRecorder())``; the tracer then
    hands it every event and channel-wait sample (it is a
    :class:`~repro.obs.tally.Cut`), every idle-work fence (:meth:`fence`)
    and every queueing delay (:meth:`note_queue_delay`).  Between two
    cuts, events fold into one pending :class:`~repro.obs.tally.Tally`.
    State is keyed by scheme, so one recorder can span a whole
    ``compare_schemes`` run exactly like the tracer's run totals.
    """

    def __init__(self, tolerance_us: float = 1e-3):
        #: Absolute slack allowed between an op's charged latency and the
        #: sum of flash time observed during it, before the op counts as
        #: an invariant violation (float summation-order dust only).
        self.tolerance_us = tolerance_us
        self._schemes: Dict[str, _SchemeLatency] = {}
        self._pending = Tally()
        self._current: Optional[str] = None
        self.last_op: Optional[LastOp] = None

    # ------------------------------------------------------------------
    # Event intake (driven by the Tracer)
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if event.scheme != self._current:
            self._switch(event.scheme)
        op_class = _HOST_CLASS.get(event.type)
        if op_class is not None:
            self._complete(op_class, event.dur_us)
        elif event.type in FLASH_OP_TYPES:
            self._pending.add(event)

    def wait(self, scheme: str, ts: float, wait_us: float) -> None:
        """Record one raw op's wait behind its busy parallel unit.

        Each sample lands in the scheme-level distribution immediately;
        its total folds into the pending tally like flash time, but sits
        outside the service invariant (the traced ``dur_us`` already
        absorbs the wait).
        """
        if scheme != self._current:
            self._switch(scheme)
        self._pending.wait_us += wait_us
        self._state(scheme).channel_wait_hist.add(wait_us)

    def fence(self, scheme: str) -> None:
        """Mark pending flash time as outside any host op (idle work)."""
        if scheme != self._current:
            self._switch(scheme)
        self._state(scheme).outside.merge(self._pending)
        self._pending.clear()

    def note_queue_delay(self, scheme: str, is_write: bool,
                         wait_us: float) -> None:
        """Record open-loop wait (response = queueing + service)."""
        state = self._state(scheme)
        for agg in (self._class(state, "write" if is_write else "read"),
                    state.overall):
            agg.queue_us += wait_us
            agg.queue_hist.add(wait_us)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _switch(self, scheme: str) -> None:
        # A scheme change mid-stream (compare_schemes) fences whatever
        # the previous scheme left pending so it never leaks across.
        if self._current is not None:
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
        pending = self._pending
        parts = {b: v for b, v in pending.by_bucket().items() if v > 0.0}
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
        self._class(state, op_class).record(dur_us, parts, unattributed,
                                            pending)
        state.overall.record(dur_us, parts, unattributed, pending)
        pending.clear()
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
                b: round(v, 3)
                for b, v in sorted(state.outside.by_bucket().items())
            },
            "channel_wait": {
                "samples": state.channel_wait_hist.count,
                "total_us": round(state.channel_wait_hist.total, 3),
                "p50_us": state.channel_wait_hist.percentile(50),
                "p99_us": state.channel_wait_hist.percentile(99),
                "outside_us": round(state.outside.wait_us, 3),
            },
            "invariant": self.invariants()[scheme],
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            scheme: self.scheme_summary(scheme)
            for scheme in self.schemes()
        }
