"""Trace sinks: where emitted events go.

* :class:`JsonlSink` - newline-delimited JSON, the durable format
  (validated by ``tools/check_trace_schema.py``);
* :class:`RingBufferSink` - bounded in-memory buffer for tests and
  interactive debugging ("what were the last N events before the stall?").

The tracer's per-cause totals are not a plain sink but a
:class:`~repro.obs.tally.Cut` (see :mod:`repro.obs.tally`).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterator, List, TextIO, Union

from .events import TraceEvent


class TraceSink:
    """Interface: receives every emitted event."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class JsonlSink(TraceSink):
    """Writes one JSON record per event to a file or stream."""

    def __init__(self, target: Union[str, TextIO]):
        if isinstance(target, str):
            self._stream: TextIO = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._stream.write(json.dumps(event.to_record()))
        self._stream.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory.

    Eviction is **counted**, never silent: once full, each new event
    increments :attr:`dropped` as the oldest event is overwritten, and
    :meth:`dump` writes a leading metadata record so offline analysis
    (``repro inspect-trace``) can surface the loss instead of treating a
    truncated window as the whole run.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.events_seen = 0
        #: Events overwritten after the ring filled (oldest-first loss).
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.events_seen += 1

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def meta_record(self) -> Dict[str, object]:
        """The JSONL metadata line describing this ring's completeness."""
        return {
            "meta": "ring",
            "schema": 1,
            "capacity": self.capacity,
            "events_seen": self.events_seen,
            "dropped": self.dropped,
        }

    def dump(self, target: Union[str, TextIO]) -> int:
        """Write the retained events as JSONL, metadata line first.

        Returns the number of *event* lines written.  Readers that skip
        records carrying a ``meta`` key (``repro.analysis.read_trace``)
        see a plain event trace; ``inspect-trace`` reports the drop count.
        """
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as stream:
                return self.dump(stream)
        target.write(json.dumps(self.meta_record()))
        target.write("\n")
        for event in self._events:
            target.write(json.dumps(event.to_record()))
            target.write("\n")
        return len(self._events)
