"""The one latency distribution: exact samples, nearest-rank percentiles.

Samples accumulate into ``array('d')`` buffers: one machine double per
sample instead of a boxed float object, which matters when every replayed
request records into three distributions (overall + reads/writes) and a
traced run records every host op's latency once more per op class.
The simulator's response times (:mod:`repro.sim.metrics`) and the
per-op latency decomposition (:mod:`repro.obs.latency`) both read their
percentiles from here.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, List

try:  # numpy accelerates the bulk paths; everything works without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the fallback tests
    _np = None  # type: ignore[assignment]


class LatencyDistribution:
    """Accumulates latency samples and answers summary queries.

    Keeps raw samples (traces in this reproduction are at most a few
    hundred thousand requests), so percentiles are exact.
    """

    __slots__ = ("_samples", "_total", "_sorted", "_min", "_max",
                 "sorts_performed")

    def __init__(self) -> None:
        self._samples: "array[float]" = array("d")
        self._total = 0.0
        self._sorted = True
        self._min = math.inf
        self._max = 0.0
        #: How many times the sample buffer was actually sorted; queries
        #: between additions must not grow this (regression-tested).
        self.sorts_performed = 0

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            # NaN slips past every comparison-based guard (NaN < 0 is
            # False) and then poisons the sort memo and every percentile;
            # infinities make mean/total meaningless.  Reject both.
            raise ValueError(
                f"latency samples must be finite, got {value!r}"
            )
        if value < 0:
            raise ValueError("latency samples must be non-negative")
        samples = self._samples
        if samples and value < samples[-1]:
            self._sorted = False
        samples.append(value)
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _extend_unchecked(self, values: Any) -> None:
        """Bulk :meth:`add`, without validation: one epoch's samples.

        Internal: the caller
        (:meth:`~repro.sim.metrics.ResponseStats.record_many`) has already
        established every value is finite and non-negative, so the batch
        is applied without re-walking it.  Bit-identical to adding each
        value in order - the running total accumulates strictly
        sequentially (``np.add.accumulate``, never the pairwise
        ``np.add.reduce``) and min/max/sortedness update to the same
        results.  Takes a numpy array or any float sequence.
        """
        n = len(values)
        samples = self._samples
        if _np is not None and isinstance(values, _np.ndarray):
            if self._sorted:
                if (samples and values[0] < samples[-1]) or (
                    n > 1 and bool((values[1:] < values[:-1]).any())
                ):
                    self._sorted = False
            acc = _np.empty(n + 1)
            acc[0] = self._total
            acc[1:] = values
            _np.add.accumulate(acc, out=acc)
            self._total = float(acc[n])
            lo = float(values.min())
            hi = float(values.max())
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi
            samples.frombytes(
                values.tobytes() if values.flags["C_CONTIGUOUS"]
                else _np.ascontiguousarray(values).tobytes()
            )
            return
        total = self._total
        lo = self._min
        hi = self._max
        is_sorted = self._sorted
        last = samples[-1] if samples else None
        append = samples.append
        for value in values:
            if is_sorted and last is not None and value < last:
                is_sorted = False
            last = value
            append(value)
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self._total = total
        self._min = lo
        self._max = hi
        self._sorted = is_sorted

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / len(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        return self._max if self._samples else 0.0

    @property
    def min(self) -> float:
        return self._min if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """Exact q-quantile (0 < q <= 100), nearest-rank method.

        Documented edge cases: an **empty** distribution returns ``0.0``
        for every q; a **single sample** returns exactly that sample.
        """
        if not 0 < q <= 100:
            raise ValueError("q must be in (0, 100]")
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        rank = max(1, math.ceil(q / 100.0 * len(self._samples)))
        return self._samples[rank - 1]

    def cdf_points(self, resolution: int = 100) -> List[tuple]:
        """(latency, cumulative fraction) pairs for CDF plots (E6)."""
        if not self._samples:
            return []
        self._ensure_sorted()
        n = len(self._samples)
        points = []
        for i in range(1, resolution + 1):
            idx = max(0, math.ceil(i / resolution * n) - 1)
            points.append((self._samples[idx], i / resolution))
        return points

    def summary(self) -> Dict[str, float]:
        """Mean / tail figures used by every benchmark report."""
        return {
            "count": self.count,
            "mean_us": self.mean,
            "p50_us": self.percentile(50),
            "p95_us": self.percentile(95),
            "p99_us": self.percentile(99),
            "p999_us": self.percentile(99.9) if self.count >= 1000
            else self.percentile(99),
            "max_us": self.max,
        }

    def _ensure_sorted(self) -> None:
        """Sort once, memoize: repeated percentile/CDF queries between
        additions reuse the sorted buffer instead of re-sorting."""
        if not self._sorted:
            # array('d') has no in-place sort; round-trip through a list.
            self._samples = array("d", sorted(self._samples))
            self._sorted = True
            self.sorts_performed += 1
