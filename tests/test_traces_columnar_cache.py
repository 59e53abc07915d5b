"""Tests for the one trace form and the binary trace cache.

Covers the columns-are-the-trace model end to end: lossless
``Trace(requests)`` -> ``list(trace)`` round trips (seeded and
hypothesis-driven), summaries against a naive recomputation, pickling,
slicing, ``merge_traces`` against a stable sort of the concatenation, the
``.rtc`` binary format, and cache hit/miss/invalidation semantics for
parsed files (mtime bump, content edit, format-version bump, corrupt file
fallback, unwritable cache directory).
"""

import math
import os
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import cache as trace_cache
from repro.traces import load_trace, save_trace, uniform_random
from repro.traces.model import (
    NO_ARRIVAL,
    IORequest,
    OpType,
    Trace,
    merge_traces,
)


@pytest.fixture
def fresh_cache(tmp_path):
    """A private, empty cache directory with zeroed counters.

    Restores the session-wide test cache (tests/conftest.py points it at
    a per-session temporary directory via ``REPRO_TRACE_CACHE_DIR``)
    afterwards so other tests keep their warm entries.
    """
    trace_cache.configure(tmp_path / "trace-cache")
    trace_cache.stats.reset()
    yield trace_cache
    trace_cache.stats.reset()
    trace_cache.configure()


def random_requests(rng, n, open_loop_fraction=0.5):
    """A mixed workload: multi-page requests, some with arrivals."""
    requests = []
    clock = 0.0
    for _ in range(n):
        op = OpType.WRITE if rng.random() < 0.6 else OpType.READ
        arrival = None
        if rng.random() < open_loop_fraction:
            clock += rng.random() * 10.0
            arrival = clock
        requests.append(
            IORequest(op, rng.randrange(0, 500), 1 + rng.randrange(4),
                      arrival_us=arrival)
        )
    return requests


def assert_summaries_naive(trace, requests):
    """Every memoized summary equals a recomputation over the requests."""
    page_ops = sum(r.npages for r in requests)
    writes = sum(r.npages for r in requests if r.is_write)
    assert trace.page_ops == page_ops
    assert trace.write_page_ops == writes
    assert trace.read_page_ops == page_ops - writes
    assert trace.write_ratio == (writes / page_ops if page_ops else 0.0)
    assert trace.max_lpn == max(
        (r.lpn + r.npages - 1 for r in requests), default=-1)
    assert trace.footprint() == len({p for r in requests for p in r.pages})


requests_strategy = st.lists(
    st.builds(
        IORequest,
        st.sampled_from(OpType),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=6),
        # Coarse arrivals: equal timestamps exercise the merge tie-break.
        st.one_of(st.none(),
                  st.integers(min_value=0, max_value=20).map(float)),
    ),
    max_size=40,
)


class TestColumnarRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("open_loop_fraction", [0.0, 0.5, 1.0])
    def test_requests_columns_requests(self, seed, open_loop_fraction):
        rng = random.Random(seed)
        requests = random_requests(rng, 200, open_loop_fraction)
        trace = Trace(requests, name="rt")
        assert list(trace) == requests
        assert [trace[i] for i in range(len(trace))] == requests
        assert trace[-1] == requests[-1]

    def test_trace_facade_round_trip(self):
        # A pickled trace ships its four columns and comes back whole.
        rng = random.Random(7)
        requests = random_requests(rng, 100)
        trace = Trace(requests, name="facade")
        rebuilt = pickle.loads(pickle.dumps(trace))
        assert rebuilt.name == "facade"
        assert list(rebuilt) == requests
        assert rebuilt.page_ops == trace.page_ops
        assert rebuilt.footprint() == trace.footprint()
        assert rebuilt.max_lpn == trace.max_lpn

    def test_fully_closed_loop_drops_arrival_column(self):
        requests = [IORequest(OpType.WRITE, i, 1) for i in range(5)]
        trace = Trace(requests)
        assert trace.arrivals is None
        assert list(trace) == requests

    def test_mixed_loop_uses_nan_sentinel(self):
        requests = [
            IORequest(OpType.WRITE, 0, 1, arrival_us=5.0),
            IORequest(OpType.READ, 1, 2),
            IORequest(OpType.WRITE, 2, 1, arrival_us=9.5),
        ]
        trace = Trace(requests)
        assert list(trace.arrivals)[0] == 5.0
        assert math.isnan(trace.arrivals[1])
        # The sentinel converts back to arrival_us=None, losslessly.
        assert list(trace) == requests

    def test_none_arrivals_equal_all_nan_column(self):
        closed = Trace.from_columns([1], [0], [1], None)
        sentinel = Trace.from_columns([1], [0], [1], [NO_ARRIVAL])
        assert list(closed) == list(sentinel) == \
            [IORequest(OpType.WRITE, 0, 1)]

    @pytest.mark.parametrize("kwargs", [
        dict(ops=[1], lpns=[-1], npages=[1]),
        dict(ops=[1], lpns=[0], npages=[0]),
        dict(ops=[1], lpns=[0], npages=[-2]),
        dict(ops=[1], lpns=[0], npages=[1], arrivals=[-1.0]),
        dict(ops=[1, 0], lpns=[0], npages=[1]),
        dict(ops=[1], lpns=[0], npages=[1], arrivals=[1.0, 2.0]),
    ])
    def test_invalid_columns_rejected(self, kwargs):
        # Unequal columns fail at construction; out-of-range values as
        # soon as a request is viewed (IORequest validates).
        with pytest.raises(ValueError):
            list(Trace.from_columns(**kwargs))

    def test_summaries_match_object_layer(self):
        rng = random.Random(11)
        requests = random_requests(rng, 150)
        assert_summaries_naive(Trace(requests), requests)

    def test_columns_are_machine_typed(self):
        trace = Trace.from_columns([1, 0], [4, 9], [2, 1], [0.5, 1.5])
        assert [column.typecode for column in (
            trace.ops, trace.lpns, trace.npages, trace.arrivals)] == \
            ["b", "q", "q", "d"]
        ops = array("b", [1])
        assert Trace.from_columns(ops, [0], [1]).ops is ops  # no copy

    @settings(max_examples=100, deadline=None)
    @given(requests_strategy, requests_strategy, st.data())
    def test_round_trip_property(self, first, second, data):
        trace = Trace(first, name="p")
        assert list(trace) == first
        assert_summaries_naive(trace, first)
        rebuilt = pickle.loads(pickle.dumps(trace))
        assert (rebuilt.name, list(rebuilt)) == ("p", first)
        start = data.draw(st.integers(0, len(first)))
        stop = data.draw(st.integers(start, len(first)))
        part = trace.slice(start, stop)
        assert list(part) == first[start:stop]
        assert part.name == f"p[{start}:{stop}]"
        assert_summaries_naive(part, first[start:stop])
        merged = list(merge_traces([trace, Trace(second)]))
        joined = first + second
        if all(r.arrival_us is not None for r in joined):
            joined = sorted(joined, key=lambda r: r.arrival_us)
        assert merged == joined


class TestBinaryFormat:
    def round_trip(self, trace):
        return trace_cache.loads_columnar(trace_cache.dumps_columnar(trace))

    def single(self):
        return Trace([IORequest(OpType.WRITE, 0, 1)])

    def test_round_trip_preserves_columns_and_name(self):
        rng = random.Random(3)
        requests = random_requests(rng, 120)
        loaded = self.round_trip(Trace(requests, name="binary-rt"))
        assert list(loaded) == requests
        assert loaded.name == "binary-rt"

    def test_round_trip_closed_loop(self):
        trace = Trace.from_columns([1, 0], [4, 9], [2, 1], None, name="cl")
        loaded = self.round_trip(trace)
        assert list(loaded) == list(trace) and loaded.arrivals is None

    def test_bad_magic_rejected(self):
        data = trace_cache.dumps_columnar(self.single())
        assert trace_cache.loads_columnar(b"XXXX" + data[4:]) is None

    def test_truncated_payload_rejected(self):
        data = trace_cache.dumps_columnar(self.single())
        assert trace_cache.loads_columnar(data[:-3]) is None
        assert trace_cache.loads_columnar(data[:4]) is None

    def test_flipped_payload_byte_fails_crc(self):
        data = bytearray(trace_cache.dumps_columnar(self.single()))
        data[-1] ^= 0xFF
        assert trace_cache.loads_columnar(bytes(data)) is None

    def test_future_format_version_rejected(self):
        data = bytearray(trace_cache.dumps_columnar(self.single()))
        data[4] ^= 0xFF  # version field follows the 4-byte magic
        assert trace_cache.loads_columnar(bytes(data)) is None


class TestCacheInvalidation:
    def write_trace_file(self, tmp_path, n=50, seed=0):
        path = tmp_path / "w.trace"
        save_trace(uniform_random(n, 256, seed=seed, name="w"), str(path))
        trace_cache.stats.reset()
        return path

    def test_second_load_hits_without_text_parse(self, fresh_cache, tmp_path):
        path = self.write_trace_file(tmp_path)
        first = load_trace(str(path))
        assert fresh_cache.stats.misses == 1
        assert fresh_cache.stats.text_parses == 1
        assert fresh_cache.stats.stores == 1
        fresh_cache.stats.reset()
        second = load_trace(str(path))
        assert fresh_cache.stats.hits == 1
        assert fresh_cache.stats.text_parses == 0
        assert fresh_cache.stats.builds == 0
        assert list(second) == list(first)
        assert second.name == first.name

    def test_mtime_bump_invalidates(self, fresh_cache, tmp_path):
        path = self.write_trace_file(tmp_path)
        load_trace(str(path))
        st_ = os.stat(path)
        os.utime(path, ns=(st_.st_atime_ns, st_.st_mtime_ns + 1_000_000))
        fresh_cache.stats.reset()
        load_trace(str(path))
        assert fresh_cache.stats.misses == 1
        assert fresh_cache.stats.text_parses == 1

    def test_content_edit_invalidates(self, fresh_cache, tmp_path):
        path = self.write_trace_file(tmp_path)
        load_trace(str(path))
        with open(path, "a") as f:
            f.write("W 7 1\n")
        fresh_cache.stats.reset()
        reloaded = load_trace(str(path))
        assert fresh_cache.stats.misses == 1
        assert reloaded[-1] == IORequest(OpType.WRITE, 7, 1)

    def test_format_version_bump_invalidates(self, fresh_cache, tmp_path,
                                             monkeypatch):
        path = self.write_trace_file(tmp_path)
        load_trace(str(path))
        monkeypatch.setattr(trace_cache, "FORMAT_VERSION",
                            trace_cache.FORMAT_VERSION + 1)
        fresh_cache.stats.reset()
        load_trace(str(path))
        # The version is part of the key, so a bump misses cleanly (it
        # never even finds, let alone mis-reads, the old-format file).
        assert fresh_cache.stats.misses == 1
        assert fresh_cache.stats.text_parses == 1

    def test_corrupt_cache_file_falls_back_to_parse(self, fresh_cache,
                                                    tmp_path):
        path = self.write_trace_file(tmp_path)
        first = load_trace(str(path))
        key = trace_cache.file_key("trace-file", str(path))
        cache_file = fresh_cache.active().path_for(key)
        assert cache_file.exists()
        cache_file.write_bytes(b"not a trace cache file")
        fresh_cache.stats.reset()
        recovered = load_trace(str(path))
        assert fresh_cache.stats.misses == 1
        assert fresh_cache.stats.text_parses == 1
        assert fresh_cache.stats.stores == 1  # rebuilt and re-persisted
        assert list(recovered) == list(first)

    def test_disabled_cache_always_builds(self, tmp_path):
        trace_cache.configure(enabled=False)
        try:
            trace_cache.stats.reset()
            path = self.write_trace_file(tmp_path)
            load_trace(str(path))
            load_trace(str(path))
            assert trace_cache.stats.builds == 2
            assert trace_cache.stats.hits == 0
            assert trace_cache.stats.stores == 0
        finally:
            trace_cache.stats.reset()
            trace_cache.configure()

    def test_store_failure_degrades_gracefully(self, tmp_path):
        # A cache rooted somewhere unwritable parses in memory instead.
        path = self.write_trace_file(tmp_path, n=30, seed=2)
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        trace_cache.configure(blocked / "sub")
        try:
            trace_cache.stats.reset()
            trace = load_trace(str(path))
            assert len(trace) == 30
            assert trace_cache.stats.stores == 0
            assert trace_cache.stats.builds == 1
        finally:
            trace_cache.stats.reset()
            trace_cache.configure()

    def test_generators_bypass_the_cache(self, fresh_cache):
        uniform_random(40, 128, seed=0)
        uniform_random(40, 128, seed=0)
        assert fresh_cache.stats.snapshot() == {
            "hits": 0, "misses": 0, "stores": 0, "builds": 0,
            "text_parses": 0}


class TestMergedColumnarPath:
    def test_merge_matches_object_path_with_tie_break(self):
        a = Trace([
            IORequest(OpType.WRITE, 0, 1, arrival_us=10.0),
            IORequest(OpType.WRITE, 1, 1, arrival_us=20.0),
        ], name="a")
        b = Trace([
            IORequest(OpType.READ, 2, 1, arrival_us=10.0),
            IORequest(OpType.READ, 3, 1, arrival_us=15.0),
        ], name="b")
        merged = list(merge_traces([a, b], name="m"))
        # Object-path reference: stable sort of the concatenation by
        # arrival keeps source order on ties (a's 10.0 before b's 10.0).
        reference = sorted(list(a) + list(b), key=lambda r: r.arrival_us)
        assert merged == reference
        assert [r.lpn for r in merged] == [0, 2, 3, 1]

    def test_merge_deterministic_across_repeats(self):
        rng = random.Random(13)
        # Coarse timestamps force plenty of equal-arrival collisions.
        traces = [
            Trace([
                IORequest(OpType.WRITE, rng.randrange(100), 1,
                          arrival_us=float(rng.randrange(8)))
                for _ in range(40)
            ], name=f"t{i}")
            for i in range(3)
        ]
        first = list(merge_traces(traces))
        for _ in range(3):
            assert list(merge_traces(traces)) == first

    def test_any_closed_loop_request_concatenates(self):
        a = Trace([IORequest(OpType.WRITE, 0, 1, arrival_us=50.0)])
        b = Trace([IORequest(OpType.WRITE, 1, 1)])
        merged = merge_traces([a, b])
        assert [r.lpn for r in merged] == [0, 1]
        assert merged[1].arrival_us is None
        closed = merge_traces([b, b])
        assert closed.arrivals is None and len(closed) == 2
