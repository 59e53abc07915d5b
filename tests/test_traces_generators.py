"""Unit tests for the synthetic and domain trace generators."""

import pytest

from repro.traces import (
    characterize,
    financial1,
    financial2,
    hot_cold,
    mixed,
    sequential,
    tpcc,
    uniform_random,
    warmup_fill,
    websearch,
    zipf,
)


FOOTPRINT = 4096


class TestDeterminism:
    @pytest.mark.parametrize("gen", [
        lambda s: uniform_random(200, FOOTPRINT, seed=s),
        lambda s: sequential(200, FOOTPRINT, seed=s),
        lambda s: hot_cold(200, FOOTPRINT, seed=s),
        lambda s: zipf(200, FOOTPRINT, seed=s),
        lambda s: mixed(200, FOOTPRINT, seed=s),
        lambda s: financial1(200, FOOTPRINT, seed=s),
        lambda s: financial2(200, FOOTPRINT, seed=s),
        lambda s: websearch(200, FOOTPRINT, seed=s),
        lambda s: tpcc(200, FOOTPRINT, seed=s),
    ])
    def test_same_seed_same_trace(self, gen):
        a, b = gen(7), gen(7)
        assert [(r.op, r.lpn, r.npages) for r in a] == \
               [(r.op, r.lpn, r.npages) for r in b]

    def test_different_seed_differs(self):
        a = uniform_random(200, FOOTPRINT, seed=1)
        b = uniform_random(200, FOOTPRINT, seed=2)
        assert [(r.lpn) for r in a] != [(r.lpn) for r in b]


class TestBounds:
    @pytest.mark.parametrize("gen", [
        lambda: uniform_random(500, FOOTPRINT, max_request_pages=4),
        lambda: sequential(500, FOOTPRINT, request_pages=8),
        lambda: hot_cold(500, FOOTPRINT, max_request_pages=4),
        lambda: zipf(500, FOOTPRINT, max_request_pages=4),
        lambda: mixed(500, FOOTPRINT),
        lambda: financial1(500, FOOTPRINT),
        lambda: websearch(500, FOOTPRINT),
        lambda: tpcc(500, FOOTPRINT),
        lambda: warmup_fill(FOOTPRINT),
    ])
    def test_all_pages_within_footprint(self, gen):
        t = gen()
        assert t.max_lpn < FOOTPRINT
        assert all(r.lpn >= 0 for r in t)

    def test_request_count(self):
        assert len(uniform_random(123, FOOTPRINT)) == 123

    def test_uniform_random_clips_requests_larger_than_footprint(self):
        t = uniform_random(2000, 4, max_request_pages=8)
        assert t.max_lpn < 4
        assert all(r.npages >= 1 for r in t)


class TestWriteRatios:
    def test_uniform_random_write_ratio(self):
        t = uniform_random(4000, FOOTPRINT, write_ratio=0.5, seed=3)
        assert 0.45 < t.write_ratio < 0.55

    def test_financial1_is_write_heavy(self):
        t = financial1(4000, FOOTPRINT, seed=1)
        assert 0.70 < t.write_ratio < 0.84

    def test_financial2_is_read_heavy(self):
        t = financial2(4000, FOOTPRINT, seed=1)
        assert t.write_ratio < 0.30

    def test_websearch_is_nearly_all_reads(self):
        t = websearch(2000, FOOTPRINT, seed=1)
        assert t.write_ratio < 0.05

    def test_tpcc_is_mixed(self):
        t = tpcc(4000, FOOTPRINT, seed=1)
        assert 0.3 < t.write_ratio < 0.6


class TestShapes:
    def test_sequential_is_sequential(self):
        t = sequential(100, FOOTPRINT, request_pages=4)
        c = characterize(t)
        assert c["sequentiality"] > 0.9

    def test_uniform_random_is_not_sequential(self):
        t = uniform_random(1000, FOOTPRINT, seed=2)
        c = characterize(t)
        assert c["sequentiality"] < 0.05

    def test_hot_cold_concentrates_accesses(self):
        t = hot_cold(4000, FOOTPRINT, hot_fraction=0.2, hot_probability=0.8,
                     seed=5)
        hot_limit = int(FOOTPRINT * 0.2)
        hot_hits = sum(r.npages for r in t if r.lpn < hot_limit)
        assert 0.75 < hot_hits / t.page_ops < 0.85
        u = uniform_random(4000, FOOTPRINT, seed=5)
        assert characterize(t)["hot20_share"] > characterize(u)["hot20_share"]

    def test_zipf_concentrates_accesses(self):
        t = zipf(4000, FOOTPRINT, theta=0.99, seed=5)
        c = characterize(t)
        assert c["hot20_share"] > 0.6

    def test_uniform_has_no_concentration(self):
        t = uniform_random(4000, FOOTPRINT, seed=5)
        c = characterize(t)
        assert c["hot20_share"] < 0.5

    def test_warmup_covers_every_page(self):
        t = warmup_fill(FOOTPRINT)
        assert t.footprint() == FOOTPRINT
        assert t.write_ratio == 1.0

    def test_mixed_sequential_fraction(self):
        t_seq = mixed(1000, FOOTPRINT, sequential_fraction=0.95, seed=1)
        t_rnd = mixed(1000, FOOTPRINT, sequential_fraction=0.05, seed=1)
        assert characterize(t_seq)["sequentiality"] > \
               characterize(t_rnd)["sequentiality"]


class TestValidation:
    def test_bad_write_ratio(self):
        with pytest.raises(ValueError):
            uniform_random(10, FOOTPRINT, write_ratio=1.5)

    def test_bad_footprint(self):
        with pytest.raises(ValueError):
            uniform_random(10, 0)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            zipf(10, FOOTPRINT, theta=1.0)

    def test_bad_hot_fraction(self):
        with pytest.raises(ValueError):
            hot_cold(10, FOOTPRINT, hot_fraction=0.0)

    def test_negative_requests(self):
        with pytest.raises(ValueError):
            sequential(-1, FOOTPRINT)

    def test_sequential_zero_request_pages(self):
        # Used to emit zero-page requests, which IORequest rejects.
        with pytest.raises(ValueError):
            sequential(10, FOOTPRINT, request_pages=0)

    def test_warmup_fill_zero_request_pages(self):
        # Used to never terminate (the cursor advanced by 0 pages).
        with pytest.raises(ValueError):
            warmup_fill(FOOTPRINT, request_pages=0)


class TestCharacterize:
    def test_empty_trace(self):
        from repro.traces import Trace
        c = characterize(Trace([]))
        assert c["requests"] == 0
        assert c["write_ratio"] == 0.0

    def test_keys_stable(self):
        c = characterize(uniform_random(50, FOOTPRINT))
        assert set(c) == {
            "requests", "page_ops", "write_ratio", "footprint_pages",
            "mean_request_pages", "sequentiality", "hot20_share",
        }
