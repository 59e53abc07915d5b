"""Integration tests: the paper's qualitative claims must hold end-to-end.

These run the full pipeline (traces -> FTLs -> simulator -> analysis) on a
reduced device so they stay fast; the benchmarks repeat them at the
headline scale.
"""

import pytest

from repro.analysis import optimality_gap
from repro.checks import SanitizedFTL
from repro.sim import DeviceSpec, Simulator, compare_schemes
from repro.sim.factory import standard_setup
from repro.traces import financial1, sequential, uniform_random

DEVICE = DeviceSpec(num_blocks=256, pages_per_block=32, page_size=512,
                    logical_fraction=0.8)
LOGICAL = DEVICE.logical_pages
FOOTPRINT = int(LOGICAL * 0.8)

OPTIONS = {
    "BAST": {"num_log_blocks": 8},
    "FAST": {"num_rw_log_blocks": 8},
    "DFTL": {"cmt_entries": 512},
    "LazyFTL": {},
}


@pytest.fixture(scope="module")
def random_results():
    trace = uniform_random(8000, FOOTPRINT, seed=0)
    return compare_schemes(trace, device=DEVICE, options=OPTIONS)


@pytest.fixture(scope="module")
def sequential_results():
    trace = sequential(8000, FOOTPRINT, request_pages=4, seed=0)
    return compare_schemes(trace, device=DEVICE, options=OPTIONS)


class TestHeadlineShape:
    """The paper's abstract: 'LazyFTL outperforms all the typical existing
    FTL schemes and is very close to the theoretically optimal solution.'"""

    def test_lazyftl_beats_bast_on_random_writes(self, random_results):
        assert (
            random_results["BAST"].mean_response_us
            >= random_results["LazyFTL"].mean_response_us * 2.0
        )

    def test_lazyftl_beats_fast_on_random_writes(self, random_results):
        assert (
            random_results["FAST"].mean_response_us
            >= random_results["LazyFTL"].mean_response_us * 2.0
        )

    def test_lazyftl_at_least_matches_dftl(self, random_results):
        assert (
            random_results["LazyFTL"].mean_response_us
            <= random_results["DFTL"].mean_response_us * 1.05
        )

    def test_lazyftl_close_to_ideal(self, random_results):
        gap = optimality_gap(random_results)
        assert gap["LazyFTL"] < 1.8
        assert gap["LazyFTL"] < gap["BAST"]
        assert gap["LazyFTL"] < gap["FAST"]

    def test_only_log_block_schemes_merge(self, random_results):
        assert random_results["BAST"].ftl_stats.merges_total > 0
        assert random_results["FAST"].ftl_stats.merges_total > 0
        assert random_results["LazyFTL"].ftl_stats.merges_total == 0
        assert random_results["DFTL"].ftl_stats.merges_total == 0
        assert random_results["ideal"].ftl_stats.merges_total == 0

    def test_fast_has_catastrophic_tail(self, random_results):
        """FAST's full merges produce the worst tail latency of all."""
        fast_max = random_results["FAST"].responses.overall.max
        lazy_max = random_results["LazyFTL"].responses.overall.max
        assert fast_max > lazy_max * 2

    def test_lazyftl_erases_fewer_than_log_schemes(self, random_results):
        assert random_results["LazyFTL"].erases < \
            random_results["BAST"].erases
        assert random_results["LazyFTL"].erases < \
            random_results["FAST"].erases


class TestSequentialParity:
    """On sequential workloads every scheme is near the ideal: log-block
    schemes switch-merge, page schemes barely collect garbage."""

    def test_all_schemes_within_2x_of_ideal(self, sequential_results):
        gap = optimality_gap(sequential_results)
        for scheme, value in gap.items():
            assert value < 2.0, f"{scheme} too slow on sequential: {value}"

    def test_log_schemes_avoid_full_merges(self, sequential_results):
        assert sequential_results["BAST"].ftl_stats.merges_full == 0
        assert sequential_results["BAST"].ftl_stats.merges_switch > 0


class TestEndToEndIntegrity:
    """Every scheme must return correct data under a realistic workload."""

    @pytest.mark.parametrize(
        "scheme", ["BAST", "FAST", "DFTL", "LazyFTL", "ideal"]
    )
    def test_verified_financial_replay(self, scheme):
        flash, ftl, logical = standard_setup(
            scheme,
            num_blocks=128,
            pages_per_block=16,
            page_size=512,
            logical_fraction=0.7,
            **OPTIONS.get(scheme, {}),
        )
        trace = financial1(4000, int(logical * 0.8), seed=1)
        ftl = SanitizedFTL(ftl)
        Simulator(ftl).run(trace)
        ftl.sweep()
        assert ftl.model.acked
