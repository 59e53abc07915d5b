"""The one latency distribution: exact samples, nearest-rank percentiles.

Samples accumulate into ``array('d')`` buffers: one machine double per
sample instead of a boxed float object, which matters when every replayed
request records into three distributions (overall + reads/writes) and a
traced run records every host op's latency once more per op class.
Adding a sample only appends it; the total, extrema and sorted flag are
folded in with numpy when a query next asks for them.
The simulator's response times (:mod:`repro.sim.metrics`) and the
per-op latency decomposition (:mod:`repro.obs.latency`) both read their
percentiles from here.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Any, Dict, List

import numpy as np


def _nearest_rank(q: float, n: int) -> int:
    """``ceil(q / 100 * n)``, reading ``q`` as the decimal it is written as
    (``str`` of a float is the shortest decimal that round-trips, so 99.9
    is 999/1000 and not the binary float just below it).

    The float product is within a few ulps of the exact one, so its
    ceiling is exact unless it lies next to a whole number - 99.9 % of
    1000 is 999.0000000000001 in floats - and only then is the rank
    worked out in integers."""
    x = q * n / 100.0
    if abs(x - round(x)) > 1e-9 * x:
        return max(1, math.ceil(x))
    ratio = Fraction(str(float(q)))
    return max(1, -(-ratio.numerator * n // (ratio.denominator * 100)))


class LatencyDistribution:
    """Accumulates latency samples and answers summary queries.

    Keeps raw samples, 8 bytes each, so percentiles are exact: ftlbench's
    ``point_read_hot`` records 1.8 M samples into its overall
    distribution alone (about 14 MB).
    """

    __slots__ = ("_samples", "_folded", "_total", "_sorted", "_min", "_max",
                 "sorts_performed")

    def __init__(self) -> None:
        self._samples: "array[float]" = array("d")
        #: How many samples ``_total``, ``_min``, ``_max`` and ``_sorted``
        #: cover; the rest were appended since and the next query folds
        #: them in (:meth:`_fold`).
        self._folded = 0
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
        self._samples.append(value)

    def _extend_unchecked(self, values: Any) -> None:
        """Bulk :meth:`add`, without validation: one epoch's samples.

        Internal: the caller
        (:meth:`~repro.sim.metrics.ResponseStats.record_many`) has already
        established every value is finite and non-negative, so the batch
        is appended without re-walking it.  Takes any float sequence.
        """
        values = np.asarray(values, dtype=np.float64)
        self._samples.frombytes(values.tobytes())

    def _fold(self) -> None:
        """Bring the total, min, max and sorted flag up to date with the
        samples appended since the last query - to the same results as
        updating them one :meth:`add` at a time: the total is a strictly
        sequential running sum (``np.add.accumulate`` seeded with the
        total so far, never the pairwise ``np.add.reduce``)."""
        samples = self._samples
        start = self._folded
        n = len(samples)
        if start == n:
            return
        # A view, not a copy: it must not outlive this call, since an
        # array('d') exporting its buffer cannot grow.
        new = np.frombuffer(samples, dtype=np.float64)[start:]
        acc = np.empty(n - start + 1)
        acc[0] = self._total
        acc[1:] = new
        np.add.accumulate(acc, out=acc)
        self._total = float(acc[-1])
        self._min = min(self._min, float(np.minimum.reduce(new)))
        self._max = max(self._max, float(np.maximum.reduce(new)))
        if self._sorted and ((start and new[0] < samples[start - 1])
                             or bool((new[1:] < new[:-1]).any())):
            self._sorted = False
        self._folded = n

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def mean(self) -> float:
        return self.total / len(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._max if self._samples else 0.0

    @property
    def min(self) -> float:
        self._fold()
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
        return self._samples[_nearest_rank(q, len(self._samples)) - 1]

    def cdf_points(self, resolution: int = 100) -> List[tuple]:
        """(latency, cumulative fraction) pairs for CDF plots (E6)."""
        if not self._samples:
            return []
        self._ensure_sorted()
        n = len(self._samples)
        points = []
        for i in range(1, resolution + 1):
            # Nearest rank ceil(i * n / resolution), in integers.
            idx = max(0, (i * n + resolution - 1) // resolution - 1)
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
        self._fold()
        if not self._sorted:
            # In place through a numpy view, stable as sorted() is (equal
            # values, -0.0 and 0.0 among them, keep their order); the view
            # dies with the statement - an exporting array cannot grow.
            np.frombuffer(self._samples, dtype=np.float64).sort(kind="stable")
            self._sorted = True
            self.sorts_performed += 1
