"""The Tracer: clock, cause stack, spans, and event fan-out.

Design contract (enforced by the overhead-guard test): **a detached tracer
costs nothing**.  Every emission site in the stack is guarded by a single
``if self._tracer is not None`` (or ``if self.tracer is not None``) branch;
no event object, no string, no function call is constructed on the
disabled path, so benchmark numbers are identical with and without the
subsystem present.

When attached, the tracer:

* keeps the **simulated clock** - the simulator sets it to each request's
  service start, and every flash op advances it by its latency, so events
  get faithful intra-request timestamps;
* keeps a **cause stack** - instrumentation pushes ``Cause.GC`` /
  ``Cause.MERGE`` / ``Cause.CONVERT`` / ``Cause.MAPPING`` around
  housekeeping work and the flash chip stamps each raw op with the
  innermost cause (default: ``host``);
* tracks **spans** (GCStart/GCEnd, MergeStart/MergeEnd, conversions) and
  computes their simulated duration;
* fans every event out to the configured sinks, to its built-in
  :class:`~repro.obs.tally.RunTotals` (per-cause time and per-type event
  counts) and, when attached, to an
  :class:`~repro.obs.latency.OpLatencyRecorder`; those two and any sink
  that is a :class:`~repro.obs.tally.Cut` also get the channel waits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from .events import Cause, EventType, TraceEvent
from .sinks import TraceSink
from .tally import Cut, RunTotals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .latency import OpLatencyRecorder


class Tracer:
    """Collects typed events from an instrumented simulator run.

    Args:
        sinks: Extra sinks (JSONL writer, ring buffer, time-series
            collector, ...).  The run totals are built in.
        latency: Optional :class:`~repro.obs.latency.OpLatencyRecorder`;
            when attached, every event is folded into the per-op cause
            decomposition and the simulator's fences / queue delays are
            forwarded to it.
    """

    def __init__(
        self,
        sinks: Iterable[TraceSink] = (),
        latency: Optional["OpLatencyRecorder"] = None,
    ):
        self.sinks: List[TraceSink] = list(sinks)
        self.attribution = RunTotals()
        self.latency = latency
        # The built-in cuts of the fold; a windowed one may be a sink.
        self._cuts: List[Cut] = [self.attribution]
        if latency is not None:
            self._cuts.append(latency)
        self.clock = 0.0
        self.scheme = ""
        self.enabled = True
        self._cause_stack: List[Cause] = [Cause.HOST]
        self._span_stack: List[Tuple[EventType, float]] = []
        self.events_emitted = 0

    # ------------------------------------------------------------------
    # Run / clock management (driven by the simulator)
    # ------------------------------------------------------------------
    def begin_run(self, scheme: str) -> None:
        """Start tracing a fresh scheme run: reset clock and stacks."""
        self.scheme = scheme
        self.clock = 0.0
        self._cause_stack = [Cause.HOST]
        self._span_stack = []

    def set_clock(self, now_us: float) -> None:
        self.clock = now_us

    def advance(self, dur_us: float) -> None:
        self.clock += dur_us

    def suspend(self) -> None:
        """Stop emitting (used while warm-up traces replay)."""
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    # ------------------------------------------------------------------
    # Cause stack
    # ------------------------------------------------------------------
    @property
    def current_cause(self) -> Cause:
        return self._cause_stack[-1]

    def push_cause(self, cause: Cause) -> None:
        self._cause_stack.append(cause)

    def pop_cause(self) -> Cause:
        if len(self._cause_stack) <= 1:
            raise RuntimeError("cause stack underflow")
        return self._cause_stack.pop()

    @contextmanager
    def cause(self, cause: Cause):
        """``with tracer.cause(Cause.MAPPING): ...`` convenience scope."""
        self.push_cause(cause)
        try:
            yield self
        finally:
            self.pop_cause()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        type: EventType,
        lpn: Optional[int] = None,
        ppn: Optional[int] = None,
        dur_us: float = 0.0,
        cause: Optional[Cause] = None,
        **extra: Any,
    ) -> None:
        """Record one event at the current clock/cause."""
        if not self.enabled:
            return
        event = TraceEvent(
            type=type,
            ts=self.clock,
            scheme=self.scheme,
            cause=cause if cause is not None else self._cause_stack[-1],
            lpn=lpn,
            ppn=ppn,
            dur_us=dur_us,
            extra=extra,
        )
        self.events_emitted += 1
        for cut in self._cuts:
            cut.emit(event)
        for sink in self.sinks:
            sink.emit(event)

    def flash_op(
        self,
        type: EventType,
        ppn: int,
        dur_us: float,
        lpn: Optional[int] = None,
    ) -> None:
        """Record a raw flash operation and advance the simulated clock.

        Called by :class:`~repro.flash.chip.NandFlash` only when a tracer
        is attached; stamps the op with the innermost cause.
        """
        if self.enabled:
            self.emit(type, lpn=lpn, ppn=ppn, dur_us=dur_us)
        self.clock += dur_us

    def host_op(self, is_write: bool, lpn: int, dur_us: float) -> None:
        """Record a completed page-granular host operation."""
        if not self.enabled:
            return
        type = EventType.HOST_WRITE if is_write else EventType.HOST_READ
        self.emit(type, lpn=lpn, dur_us=dur_us)

    def host_trim(self, lpn: int, dur_us: float = 0.0) -> None:
        """Record a completed page-granular host discard/trim."""
        if not self.enabled:
            return
        self.emit(EventType.HOST_TRIM, lpn=lpn, dur_us=dur_us)

    def op_fence(self) -> None:
        """Mark subsequent flash time as belonging to no host op.

        The simulator calls this after granting device idle time to
        background housekeeping, so the latency recorder never folds that
        work into the next host op's decomposition.
        """
        if self.enabled and self.latency is not None:
            self.latency.fence(self.scheme)

    def queue_delay(self, is_write: bool, wait_us: float) -> None:
        """Record one request's open-loop wait behind the busy device."""
        if self.enabled and self.latency is not None:
            self.latency.note_queue_delay(self.scheme, is_write, wait_us)

    def channel_wait(self, wait_us: float) -> None:
        """Record time a raw op waited on its busy parallel unit.

        Emitted by :class:`~repro.flash.chip.NandFlash` on a multi-unit
        geometry, just before the op's own event, for ops that started
        after the least-busy unit was already free - the time lost to
        stripe imbalance.  Like queueing it sits
        *outside* the per-op service decomposition (the op's traced
        ``dur_us`` is its marginal makespan contribution, which already
        absorbs the wait), so every cut's tally keeps it beside the cause
        cells rather than in one.
        """
        if not self.enabled:
            return
        for cut in self._cuts:
            cut.wait(self.scheme, self.clock, wait_us)
        for sink in self.sinks:
            if isinstance(sink, Cut):
                sink.wait(self.scheme, self.clock, wait_us)

    # ------------------------------------------------------------------
    # Spans (GC / merge / convert)
    # ------------------------------------------------------------------
    def span_start(
        self,
        type: Optional[EventType],
        cause: Cause,
        **fields: Any,
    ) -> None:
        """Open a span: optionally emit a start event, push its cause."""
        if type is not None:
            self.emit(type, **fields)
        self.push_cause(cause)
        self._span_stack.append(
            (type if type is not None else EventType.CONVERT, self.clock)
        )

    def span_end(self, type: Optional[EventType], **fields: Any) -> None:
        """Close the innermost span; the end event carries its duration."""
        self.pop_cause()
        _, start = self._span_stack.pop()
        if type is not None:
            self.emit(type, dur_us=self.clock - start, **fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
