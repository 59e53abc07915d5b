"""Harness-side spans: wall-clock intervals around calls into each layer.

The benchmark records one span per layer boundary it crosses (trace
generation, device build, warm-up, timed run, ...) from *outside* the
program - nothing under ``src/`` is instrumented.  Spans stay in memory
and are written out once, when the benchmark ends.  A span's *self* time
is its duration minus the part of that interval its child spans cover.

A recorder given a :class:`~.steady.SteadyClock` also measures the spans
opened with ``steady=True`` at reference speed (see :mod:`.steady`): the
timed pass reports those, so that the host's speed regime drops out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from .steady import SteadyClock


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the enclosing span."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str
    #: Steady spans only: wall seconds of the work inside the span (the
    #: canary samples excluded), and the same at reference speed.
    work_s: Optional[float] = None
    ref_s: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """Reference-speed seconds if measured, else the wall duration."""
        return self.duration if self.ref_s is None else self.ref_s


class SpanRecorder:
    """Collects spans for one workload; nesting follows the call stack."""

    def __init__(self, workload: str, clock: Optional[SteadyClock] = None):
        self.workload = workload
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, steady: bool = False) -> Iterator[Span]:
        """Record a span; ``steady`` ones (leaves only: regions do not
        nest) are also timed at reference speed when there is a clock."""
        now = time.perf_counter()
        record = Span(
            id=len(self.spans), name=name, start=now, end=now,
            parent=self._open[-1] if self._open else None,
            workload=self.workload,
        )
        self.spans.append(record)
        self._open.append(record.id)
        try:
            if steady and self.clock is not None:
                with self.clock.region() as region:
                    yield record
                record.work_s, record.ref_s = region.wall_s, region.ref_s
            else:
                yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> List[Span]:
        """Every span called ``name``, in record order."""
        return [s for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        """Wall durations (s) of every span called ``name``."""
        return [s.duration for s in self.named(name)]

    def as_records(self) -> List[dict]:
        """The spans as dicts, each with its self time, for the dump."""
        own = self_times(self.spans)
        return [{**asdict(s), "self_s": own[s.id]} for s in self.spans]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of child cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so time two children share is subtracted once.
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result
