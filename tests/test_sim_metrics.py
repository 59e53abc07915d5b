"""Unit tests for latency distributions and response stats."""

import random

import pytest

from repro.obs import metrics as obs_metrics
from repro.sim.metrics import LatencyDistribution, ResponseStats


class TestLatencyDistribution:
    def test_empty(self):
        d = LatencyDistribution()
        assert d.count == 0
        assert d.mean == 0.0
        assert d.max == 0.0
        assert d.percentile(50) == 0.0

    def test_mean_total(self):
        d = LatencyDistribution()
        for v in (1.0, 2.0, 3.0):
            d.add(v)
        assert d.total == 6.0
        assert d.mean == 2.0
        assert d.min == 1.0
        assert d.max == 3.0

    def test_percentiles_exact(self):
        d = LatencyDistribution()
        for v in range(1, 101):  # 1..100
            d.add(float(v))
        assert d.percentile(50) == 50.0
        assert d.percentile(95) == 95.0
        assert d.percentile(99) == 99.0
        assert d.percentile(100) == 100.0

    @pytest.mark.parametrize("n", [1000, 2000, 41_000])
    def test_percentile_is_nearest_rank_at_every_decimal_q(self, n):
        """Rank ceil(q / 100 * n) with q read as the decimal 99.9: in
        floats, 99.9 / 100 * 1000 is 999.0000000000001 and rounded up to
        the sample above (so did 99.9 * n / 100 at n = 41 000)."""
        d = LatencyDistribution()
        for v in range(1, n + 1):
            d.add(float(v))
        assert d.percentile(99.9) == float(n * 999 // 1000)
        assert d.percentile(50) == float(n // 2)

    def test_cdf_points_are_nearest_rank(self):
        """Over 1..100 at resolution 100 the i-th point is sample i; the
        float form ceil(i / 100 * 100) put i = 7, 14 and 55 one high."""
        d = LatencyDistribution()
        for v in range(1, 101):
            d.add(float(v))
        assert d.cdf_points() == [(float(i), i / 100) for i in range(1, 101)]

    def test_percentile_unsorted_input(self):
        d = LatencyDistribution()
        for v in (5.0, 1.0, 9.0, 3.0):
            d.add(v)
        assert d.percentile(100) == 9.0
        assert d.percentile(25) == 1.0

    def test_percentile_bounds(self):
        d = LatencyDistribution()
        d.add(1.0)
        with pytest.raises(ValueError):
            d.percentile(0)
        with pytest.raises(ValueError):
            d.percentile(101)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyDistribution().add(-1.0)

    def test_cdf_points_monotone(self):
        d = LatencyDistribution()
        for v in (4.0, 2.0, 8.0, 1.0, 16.0):
            d.add(v)
        points = d.cdf_points(resolution=10)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys[-1] == 1.0

    def test_summary_keys(self):
        d = LatencyDistribution()
        d.add(1.0)
        assert set(d.summary()) == {
            "count", "mean_us", "p50_us", "p95_us", "p99_us", "p999_us",
            "max_us",
        }

    def test_percentile_sorts_once_and_memoizes(self):
        """Regression: repeated queries between additions reuse the one
        sort instead of re-sorting per percentile call."""
        d = LatencyDistribution()
        for v in (5.0, 1.0, 9.0, 3.0, 7.0):
            d.add(v)
        assert d.sorts_performed == 0
        d.summary()  # five percentile queries plus min/max
        assert d.sorts_performed == 1
        d.percentile(50)
        d.cdf_points(resolution=4)
        assert d.sorts_performed == 1
        # A new out-of-order sample invalidates; the next query re-sorts
        # exactly once more.
        d.add(2.0)
        assert d.percentile(100) == 9.0
        assert d.sorts_performed == 2

    def test_sorted_buffer_equals_sorted_including_signed_zeros(self):
        """The sorted buffer is exactly ``sorted()`` of the samples: a
        stable order, so equal values - 0.0 and -0.0 among them - keep
        the order they were added in; the buffer still grows after."""
        rng = random.Random(5)
        values = [rng.choice((0.0, -0.0, 1.5, 2.0, rng.random() * 10))
                  for _ in range(2000)]
        d = LatencyDistribution()
        for v in values[:1000]:
            d.add(v)
        d._extend_unchecked(values[1000:])
        assert d.percentile(50) == sorted(values)[999]
        assert d.sorts_performed == 1
        assert [repr(v) for v in d._samples] == \
            [repr(v) for v in sorted(values)]
        d.add(-0.0)
        assert d.count == 2001 and d.percentile(1) == 0.0

    def test_sorted_input_never_sorts(self):
        d = LatencyDistribution()
        for v in (1.0, 2.0, 3.0, 4.0):
            d.add(v)
        assert d.percentile(50) == 2.0
        assert d.sorts_performed == 0

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_a_chunked_fold_is_the_sequential_sum(self, monkeypatch, chunk):
        """A backlog is folded ``_FOLD_CHUNK`` samples per numpy call,
        each run seeded with the total so far: the total is the strictly
        sequential sum one ``add`` at a time gives, at any chunk size
        (summing each run apart and adding the sums gives another
        float here)."""
        monkeypatch.setattr(obs_metrics, "_FOLD_CHUNK", chunk)
        rng = random.Random(7)
        values = [rng.random() * rng.choice((1.0, 1e3, 1e9))
                  for _ in range(1000)]
        d = LatencyDistribution()
        sequential = 0.0
        for part in (values[:10], values[10:11], values[11:]):
            d._extend_unchecked(part)
            for v in part:
                sequential += v
            assert d.total == sequential
        assert (d.min, d.max) == (min(values), max(values))

    def test_running_min_max_no_rescan(self):
        """min/max are maintained incrementally (O(1) per query) and
        survive the sort-invalidation dance."""
        d = LatencyDistribution()
        for v in (5.0, 1.0, 9.0):
            d.add(v)
        assert (d.min, d.max) == (1.0, 9.0)
        d.add(0.5)
        d.add(20.0)
        assert (d.min, d.max) == (0.5, 20.0)
        # Queries don't re-scan the samples list: corrupt one entry and
        # the maintained extrema still answer correctly.
        d._samples[0] = -999.0
        assert (d.min, d.max) == (0.5, 20.0)


class TestResponseStats:
    def test_split_by_op(self):
        s = ResponseStats()
        s.record(is_write=True, response_us=10.0)
        s.record(is_write=False, response_us=2.0)
        s.record(is_write=True, response_us=20.0)
        assert s.overall.count == 3
        assert s.writes.count == 2
        assert s.reads.count == 1
        assert s.writes.mean == 15.0

    def test_summary_structure(self):
        s = ResponseStats()
        s.record(True, 1.0)
        summary = s.summary()
        assert set(summary) == {"overall", "reads", "writes"}
