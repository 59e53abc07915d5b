"""Windowed time-series over the simulated clock.

The tracer's run totals aggregate over a whole run and the latency
recorder per host op; this module keeps the *trajectory*: fixed-width
windows of simulated time (default 0.1 s) holding ops/s, write
amplification, GC debt, the translation-cache hit-rate estimate,
erase-count variance and per-cause stall fractions.  Windows live in a
bounded ring (oldest evicted first, **counted** in
:attr:`SeriesCollector.windows_dropped` - never silently), and export as
JSONL (one window per line).

Metric definitions (documented once, used by report + export):

* ``ops_per_sec`` - host page ops completed in the window / window span;
* ``waf`` - raw page programs / host page writes in the window (write
  amplification factor; ``None`` when the window saw no host write);
* ``gc_debt_pages`` - valid pages relocated by GC + merges in the window
  (the cleaning backlog actually paid, in pages);
* ``map_hit_rate`` - 1 - translation-page reads per host op, clamped to
  [0, 1]: the UMT/CMT hit-rate estimate observable from the event stream
  (each MapRead is a cache miss that went to flash);
* ``erase_variance`` - population variance of per-block erase counts at
  window close (cumulative; over all blocks when ``num_blocks`` is
  given, else over blocks seen erasing);
* ``stall_fractions`` - per-cause share of the window's flash time.

Each window is a cut of the one fold (:mod:`repro.obs.tally`): a
:class:`~repro.obs.tally.Tally` the metrics are read from.  A
:class:`SeriesCollector` is a :class:`~repro.obs.tally.Cut`: pass it to
the tracer's sink list.  State is keyed by scheme (the tracer clock
restarts per scheme in a comparison run).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, TextIO, Union

from .events import Cause, EventType, TraceEvent
from .tally import Cut, Tally

#: Version stamp of the per-window JSONL record layout.
SERIES_SCHEMA_VERSION = 1

#: Default window width in simulated microseconds (0.1 s).
DEFAULT_WINDOW_US = 100_000.0


class Window:
    """One window's tally; derived metrics come from :meth:`as_dict`."""

    __slots__ = ("index", "tally")

    def __init__(self, index: int):
        self.index = index
        self.tally = Tally()

    def as_dict(self, window_us: float,
                erase_variance: float) -> Dict[str, object]:
        tally = self.tally
        counts = tally.counts()
        time_by_cause = tally.by_cause()
        flash_us = sum(time_by_cause.values())
        host_reads = counts.get(EventType.HOST_READ, 0)
        host_writes = counts.get(EventType.HOST_WRITE, 0)
        host_trims = counts.get(EventType.HOST_TRIM, 0)
        host_ops = host_reads + host_writes + host_trims
        page_programs = counts.get(EventType.PAGE_PROGRAM, 0)
        map_reads = counts.get(EventType.MAP_READ, 0)
        waf = page_programs / host_writes if host_writes else None
        map_hit = (max(0.0, min(1.0, 1.0 - map_reads / host_ops))
                   if host_ops else None)
        return {
            "schema": SERIES_SCHEMA_VERSION,
            "window": self.index,
            "t_us": self.index * window_us,
            "window_us": window_us,
            "host_ops": host_ops,
            "ops_per_sec": host_ops / (window_us / 1e6),
            "host_reads": host_reads,
            "host_writes": host_writes,
            "host_trims": host_trims,
            "page_reads": counts.get(EventType.PAGE_READ, 0),
            "page_programs": page_programs,
            "block_erases": counts.get(EventType.BLOCK_ERASE, 0),
            "map_reads": map_reads,
            "map_writes": counts.get(EventType.MAP_WRITE, 0),
            "gc_runs": counts.get(EventType.GC_START, 0),
            "converts": counts.get(EventType.CONVERT, 0),
            "waf": waf,
            "gc_debt_pages": tally.count(EventType.PAGE_PROGRAM,
                                         Cause.GC, Cause.MERGE),
            "channel_wait_us": round(tally.wait_us, 3),
            "map_hit_rate": map_hit,
            "erase_variance": erase_variance,
            "flash_time_us": round(flash_us, 3),
            "stall_fractions": {
                cause: spent / flash_us
                for cause, spent in sorted(time_by_cause.items())
            } if flash_us > 0 else {},
        }


class _SchemeSeries:
    """Ring of closed windows plus the one being filled, for one scheme."""

    __slots__ = ("ring", "current", "dropped", "erase_counts")

    def __init__(self, capacity: int):
        self.ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.current: Optional[Window] = None
        self.dropped = 0
        self.erase_counts: Dict[int, int] = {}


class SeriesCollector(Cut):
    """Folds the event stream into per-window time-series (see module doc).

    Args:
        window_us: Window width in simulated microseconds.
        capacity: Closed windows kept per scheme (ring; evictions are
            counted in :attr:`windows_dropped`, never silent).
        num_blocks: Physical block count, when known - makes
            ``erase_variance`` exact (blocks never erased count as zero).
    """

    def __init__(
        self,
        window_us: float = DEFAULT_WINDOW_US,
        capacity: int = 720,
        num_blocks: Optional[int] = None,
    ):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.window_us = window_us
        self.capacity = capacity
        self.num_blocks = num_blocks
        self._schemes: Dict[str, _SchemeSeries] = {}

    # ------------------------------------------------------------------
    # Sink interface
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        window, state = self._window_at(event.scheme, event.ts)
        window.tally.add(event)
        if event.type is EventType.BLOCK_ERASE and event.ppn is not None:
            counts = state.erase_counts
            counts[event.ppn] = counts.get(event.ppn, 0) + 1

    def wait(self, scheme: str, ts: float, wait_us: float) -> None:
        """Fold one stripe-imbalance wait sample into its window."""
        self._window_at(scheme, ts)[0].tally.wait_us += wait_us

    def _window_at(self, scheme: str, ts: float):
        """Resolve (window, state) for a timestamp, closing as needed."""
        state = self._schemes.get(scheme)
        if state is None:
            state = self._schemes[scheme] = _SchemeSeries(self.capacity)
        index = int(ts // self.window_us)
        window = state.current
        if window is None:
            window = state.current = Window(index)
        elif index > window.index:
            self._close_through(state, index)
            window = state.current
        return window, state

    def _close_through(self, state: _SchemeSeries, index: int) -> None:
        """Close the current window and any empty gap windows before
        ``index``; the ring counts what it evicts."""
        window = state.current
        assert window is not None
        ring = state.ring
        while window.index < index:
            if len(ring) == ring.maxlen:
                state.dropped += 1
            ring.append(window.as_dict(
                self.window_us, self._erase_variance(state)
            ))
            window = Window(window.index + 1)
        state.current = window

    def _erase_variance(self, state: _SchemeSeries) -> float:
        counts = state.erase_counts
        if not counts:
            return 0.0
        population = self.num_blocks if self.num_blocks else len(counts)
        if population <= 0:
            return 0.0
        total = sum(counts.values())
        mean = total / population
        square_sum = sum(c * c for c in counts.values())
        # Blocks never erased contribute (0 - mean)^2 each.
        return (square_sum / population) - mean * mean

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def schemes(self) -> List[str]:
        return sorted(self._schemes)

    def windows_dropped(self, scheme: str) -> int:
        state = self._schemes.get(scheme)
        return state.dropped if state is not None else 0

    def windows(self, scheme: str) -> List[Dict[str, object]]:
        """All retained windows, oldest first, including the open one."""
        state = self._schemes.get(scheme)
        if state is None:
            return []
        out = list(state.ring)
        if state.current is not None:
            out.append(state.current.as_dict(
                self.window_us, self._erase_variance(state)
            ))
        return out

    def series(self, scheme: str, metric: str) -> List[float]:
        """One metric across the retained windows (None -> 0.0)."""
        values = []
        for window in self.windows(scheme):
            value = window.get(metric)
            values.append(float(value) if value is not None else 0.0)
        return values

    def snapshot(self, scheme: str) -> Dict[str, object]:
        return {
            "window_us": self.window_us,
            "capacity": self.capacity,
            "windows_dropped": self.windows_dropped(scheme),
            "windows": self.windows(scheme),
        }

    def to_jsonl(self, target: Union[str, TextIO],
                 scheme: Optional[str] = None) -> int:
        """Write retained windows as JSONL; returns lines written."""
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as stream:
                return self.to_jsonl(stream, scheme=scheme)
        schemes = [scheme] if scheme is not None else self.schemes()
        written = 0
        for name in schemes:
            for window in self.windows(name):
                record = {"scheme": name}
                record.update(window)
                target.write(json.dumps(record))
                target.write("\n")
                written += 1
        return written
