"""Response-time statistics of a simulated run.

Each distribution is a :class:`~repro.obs.metrics.LatencyDistribution`,
re-exported here and from :mod:`repro.sim`.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict

from ..obs.metrics import LatencyDistribution

try:  # numpy accelerates the bulk paths; everything works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the fallback tests
    _np = None  # type: ignore[assignment]


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
        """Bulk :meth:`record` for one replay epoch.

        ``ops`` is the epoch's slice of the columnar op codes (truthy =
        write) and ``responses`` its response times, same length.  Every
        distribution receives its subsequence in trace order, so the
        result is bit-identical to recording one response at a time.
        Validation (finite, non-negative) runs once over the batch; the
        three distributions then extend unchecked.
        """
        if len(responses) == 0:
            return
        if _np is not None and isinstance(responses, _np.ndarray):
            if responses.dtype != _np.float64:
                responses = responses.astype(_np.float64)
            if not bool(_np.isfinite(responses).all()):
                raise ValueError("latency samples must be finite")
            if bool((responses < 0).any()):
                raise ValueError("latency samples must be non-negative")
            op_codes = _np.frombuffer(ops, dtype=_np.int8) \
                if not isinstance(ops, _np.ndarray) else ops
            self.overall._extend_unchecked(responses)
            writes_mask = op_codes != 0
            write_vals = responses[writes_mask]
            read_vals = responses[~writes_mask]
            if len(write_vals):
                self.writes._extend_unchecked(write_vals)
            if len(read_vals):
                self.reads._extend_unchecked(read_vals)
            return
        isfinite = math.isfinite
        for value in responses:
            if not isfinite(value):
                raise ValueError(
                    f"latency samples must be finite, got {value!r}"
                )
            if value < 0:
                raise ValueError("latency samples must be non-negative")
        self.overall._extend_unchecked(responses)
        write_vals = array("d")
        read_vals = array("d")
        for op, value in zip(ops, responses):
            if op:
                write_vals.append(value)
            else:
                read_vals.append(value)
        if write_vals:
            self.writes._extend_unchecked(write_vals)
        if read_vals:
            self.reads._extend_unchecked(read_vals)

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            "overall": self.overall.summary(),
            "reads": self.reads.summary(),
            "writes": self.writes.summary(),
        }
