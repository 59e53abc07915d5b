"""Edge-case regression tests for ``LatencyDistribution``, the one latency
distribution every report is built on (simulator responses and the
per-op latency decomposition alike).

Pinned behaviours: NaN / infinity / negative samples are rejected
*before* any internal state mutates (no half-updated distributions), an
empty distribution answers 0.0 for every quantile, and a single
observation is reported exactly."""

import math

import pytest

from repro.obs.metrics import LatencyDistribution

pytestmark = pytest.mark.obs

BAD_SAMPLES = (float("nan"), float("inf"), -float("inf"), -1.0, -1e-12)


class TestLatencyDistribution:
    def test_empty_is_all_zero(self):
        dist = LatencyDistribution()
        assert dist.percentile(50) == 0.0
        assert dist.percentile(100) == 0.0
        assert dist.mean == 0.0
        assert dist.min == 0.0
        assert dist.max == 0.0
        assert dist.cdf_points() == []
        summary = dist.summary()
        assert summary["count"] == 0
        assert summary["p999_us"] == 0.0

    def test_single_sample_is_exact(self):
        dist = LatencyDistribution()
        dist.add(123.25)
        for q in (0.1, 50, 99.9, 100):
            assert dist.percentile(q) == 123.25
        assert dist.summary()["p999_us"] == 123.25

    @pytest.mark.parametrize("bad", BAD_SAMPLES)
    def test_rejects_bad_samples_without_partial_state(self, bad):
        dist = LatencyDistribution()
        dist.add(5.0)
        with pytest.raises(ValueError):
            dist.add(bad)
        assert dist.count == 1
        assert dist.total == 5.0
        assert dist.min == 5.0
        assert dist.max == 5.0
        assert dist.percentile(50) == 5.0

    def test_nan_cannot_poison_the_sort_memo(self):
        """The historic failure mode: NaN compares False against
        everything, so an unguarded add() would leave the buffer marked
        sorted while percentiles silently went wrong."""
        dist = LatencyDistribution()
        for v in (3.0, 1.0, 2.0):
            dist.add(v)
        with pytest.raises(ValueError):
            dist.add(float("nan"))
        assert dist.percentile(50) == 2.0
        assert dist.percentile(100) == 3.0
        assert not any(math.isnan(v) for v in dist.cdf_points()[0])

    def test_p999_falls_back_to_p99_below_1000_samples(self):
        dist = LatencyDistribution()
        for v in range(999):
            dist.add(float(v))
        assert dist.summary()["p999_us"] == dist.percentile(99)
        dist.add(999.0)
        assert dist.summary()["p999_us"] == dist.percentile(99.9)

    def test_queries_between_adds_sort_once(self):
        dist = LatencyDistribution()
        for v in (5.0, 1.0, 3.0):
            dist.add(v)
        dist.percentile(50)
        dist.percentile(99)
        dist.cdf_points()
        assert dist.sorts_performed == 1

    def test_percentile_domain(self):
        dist = LatencyDistribution()
        with pytest.raises(ValueError):
            dist.percentile(0)
        with pytest.raises(ValueError):
            dist.percentile(100.5)
