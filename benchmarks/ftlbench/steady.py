"""Host time at reference speed: canary-normalised timing.

The box the benchmark runs on is a slice of a shared host whose speed moves
between regimes - identical pure-Python work takes 1x to 2x its best time,
for seconds or minutes at a stretch, with CPU time moving along with wall
time - so neither best-of-N nor a median of wall times repeats.  What does
repeat is the *ratio* of the program's time to that of a fixed piece of
pure-Python work (the canary) run at the same moment.

A :class:`SteadyClock` region arms an interval timer whose handler runs the
canary every ``interval_s`` of wall time, in the main thread, between two
bytecodes of whatever is being measured.  Each stretch of work between two
canary samples is then divided by how much slower than
:data:`CANARY_REF_S` those two samples ran.  The sum is the region's time
*at reference speed*: what the work would have taken had the host run flat
out throughout.  The wall time of the work (canary excluded) is kept too.

The canary lives here, not under ``src/``: a change to the program moves
the program's time and leaves the canary's alone.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

#: What :func:`canary` takes on the box the seed numbers were recorded on
#: when nothing interferes (the floor over some thousand samples).  Fixed:
#: it only sets the scale, so a reference-speed second is about a second
#: of that box at its fastest.
CANARY_REF_S = 0.0035
#: Wall seconds between canary samples inside a region.
INTERVAL_S = 0.05
_CANARY_STEPS = 15_000


class _Cell:
    """A slotted object with a method, as the simulator is made of."""

    __slots__ = ("total", "recent")

    def __init__(self) -> None:
        self.total = 0
        self.recent = [0] * 8

    def step(self, i: int) -> int:
        self.total += i
        self.recent[i & 7] = self.total
        return self.total


def canary() -> int:
    """A fixed amount of interpreter work shaped like the replay loop:
    method calls on slotted objects, list and dict stores and loads,
    small-integer arithmetic.  No allocation that survives the call."""
    table = {}
    cells = [_Cell() for _ in range(64)]
    total = 0
    for i in range(_CANARY_STEPS):
        table[i & 4095] = i
        total += table.get((i * 7) & 4095, 0) + cells[i & 63].step(i)
    return total


class Region:
    """One measured stretch of work."""

    def __init__(self) -> None:
        #: Wall seconds of the work itself (canary samples excluded).
        self.wall_s = 0.0
        #: The same at reference speed.
        self.ref_s = 0.0
        #: Canary samples taken (two bracket the region).
        self.samples = 0

    def close(self, marks: List[Tuple[float, float]]) -> None:
        """Fold the ``(start, end)`` of every canary sample, in order."""
        self.samples = len(marks)
        for (start, end), (next_start, next_end) in zip(marks, marks[1:]):
            work = next_start - end
            slowdown = ((end - start) + (next_end - next_start)) \
                / (2.0 * CANARY_REF_S)
            self.wall_s += work
            self.ref_s += work / slowdown


class SteadyClock:
    """Measures regions of main-thread work at reference speed.

    One per process: it owns ``SIGALRM``.  The handler stays installed
    for the life of the process (outside a region it does nothing), so a
    late signal never meets the default action.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._marks: Optional[List[Tuple[float, float]]] = None
        self._sampling = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum: int, frame: object) -> None:
        self._sample()

    def _sample(self) -> None:
        marks = self._marks
        if marks is None or self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        canary()
        marks.append((start, time.perf_counter()))
        self._sampling = False

    @contextmanager
    def region(self) -> Iterator[Region]:
        if self._marks is not None:
            raise RuntimeError("steady regions do not nest")
        region = Region()
        self._marks = marks = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        try:
            yield region
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._sample()
            self._marks = None
            region.close(marks)
