"""Response-time statistics of a simulated run.

Each distribution is a :class:`~repro.obs.metrics.LatencyDistribution`,
re-exported here and from :mod:`repro.sim`.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from ..obs.metrics import LatencyDistribution


class ResponseStats:
    """Per-operation-type response-time distributions."""

    __slots__ = ("overall", "reads", "writes")

    def __init__(self) -> None:
        self.overall = LatencyDistribution()
        self.reads = LatencyDistribution()
        self.writes = LatencyDistribution()

    def record(self, is_write: bool, response_us: float) -> None:
        self.overall.add(response_us)
        if is_write:
            self.writes.add(response_us)
        else:
            self.reads.add(response_us)

    def record_many(self, ops: Any, responses: Any) -> None:
        """Bulk :meth:`record`: the replay's recording kernel, called once
        per chunk of its response column.

        ``ops`` is the chunk's slice of the columnar op codes, a byte
        buffer (nonzero = write), and ``responses`` its response times,
        any float sequence of the same length.  Every distribution
        receives its subsequence in trace order, so the result is
        bit-identical to recording one response at a time.  Validation
        (finite, non-negative) runs once over the batch, before any
        distribution changes; the three then extend unchecked.
        """
        values = np.asarray(responses, dtype=np.float64)
        if len(values) == 0:
            return
        # min and max propagate a NaN, so these two find every bad sample.
        lo = float(np.minimum.reduce(values))
        hi = float(np.maximum.reduce(values))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("latency samples must be finite")
        if lo < 0:
            raise ValueError("latency samples must be non-negative")
        writes = np.frombuffer(ops, dtype=np.int8) != 0
        self.overall._extend_unchecked(values)
        self.writes._extend_unchecked(values[writes])
        self.reads._extend_unchecked(values[~writes])

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            "overall": self.overall.summary(),
            "reads": self.reads.summary(),
            "writes": self.writes.summary(),
        }
