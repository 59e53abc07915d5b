"""Property-based tests (hypothesis) for core invariants.

These complement the example-based suites: hypothesis searches the space
of operation sequences for violations of the contracts every component
must keep - read-your-writes through GC/convert churn, crash-recovery
soundness at arbitrary crash points, accounting consistency, and parser
invariants.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checks import SanitizedFTL
from repro.core import LazyConfig, LazyFTL, recover
from repro.core.umt import UpdateMappingTable, group_by_tvpn
from repro.flash import (
    FlashGeometry,
    NandFlash,
    PageState,
    PowerLossError,
    UNIT_TIMING,
)
from repro.ftl import (
    BastFTL,
    DftlFTL,
    FastFTL,
    PageFTL,
    SuperblockFTL,
)
from repro.ftl.pool import BlockPool
from repro.sim.metrics import LatencyDistribution
from repro.traces import parse_spc

LOGICAL = 48
SLOW = settings(deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])
FAST_SETTINGS = settings(deadline=None, max_examples=60)


#: Schemes that group pages into logical blocks, on a 24-block device.
BLOCK_SCHEMES = {
    "BAST": lambda flash: BastFTL(flash, LOGICAL, num_log_blocks=3),
    "FAST": lambda flash: FastFTL(flash, LOGICAL, num_rw_log_blocks=3),
    "superblock": lambda flash: SuperblockFTL(flash, LOGICAL,
                                              blocks_per_superblock=4),
}


def build(scheme: str):
    if scheme in BLOCK_SCHEMES:
        flash = NandFlash(
            FlashGeometry(num_blocks=24, pages_per_block=4, page_size=64),
            timing=UNIT_TIMING,
        )
        ftl = BLOCK_SCHEMES[scheme](flash)
        flash.enforce_sequential = not ftl.requires_random_program
        return ftl
    flash = NandFlash(
        FlashGeometry(num_blocks=28, pages_per_block=4, page_size=64),
        timing=UNIT_TIMING,
    )
    if scheme == "DFTL":
        return DftlFTL(flash, LOGICAL, cmt_entries=4)
    if scheme == "LazyFTL":
        return LazyFTL(flash, LOGICAL,
                       LazyConfig(uba_blocks=2, cba_blocks=2,
                                  gc_free_threshold=3))
    return PageFTL(flash, LOGICAL)


ops_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=LOGICAL - 1)),
    min_size=1,
    max_size=300,
)


#: Host ops as the crash checker spells them: write, read, discard.
host_ops_strategy = st.lists(
    st.tuples(st.sampled_from("wrd"),
              st.integers(min_value=0, max_value=LOGICAL - 1)),
    min_size=1,
    max_size=300,
)


class TestReadYourWrites:
    """The fundamental FTL contract, searched over op sequences: every
    read, and the final sweep of every page, checked against
    ``SanitizedFTL``'s host-state model."""

    @staticmethod
    def check(scheme, ops):
        ftl = SanitizedFTL(build(scheme))
        for kind, lpn in ops:
            if kind == "w":
                ftl.write(lpn)
            elif kind == "d":
                ftl.trim(lpn)
            else:
                ftl.read(lpn)
        ftl.sweep()

    @SLOW
    @given(ops=host_ops_strategy)
    def test_lazyftl(self, ops):
        self.check("LazyFTL", ops)

    @SLOW
    @given(ops=host_ops_strategy)
    def test_dftl(self, ops):
        self.check("DFTL", ops)

    @SLOW
    @given(ops=host_ops_strategy)
    def test_bast(self, ops):
        self.check("BAST", ops)

    @SLOW
    @given(ops=host_ops_strategy)
    def test_fast(self, ops):
        self.check("FAST", ops)

    @SLOW
    @given(ops=host_ops_strategy)
    def test_ideal(self, ops):
        self.check("ideal", ops)

    @SLOW
    @given(ops=host_ops_strategy)
    def test_superblock(self, ops):
        self.check("superblock", ops)


class TestLazyFTLInvariants:
    @SLOW
    @given(ops=ops_strategy)
    def test_never_merges_and_umt_consistent(self, ops):
        ftl = build("LazyFTL")
        for i, (is_write, lpn) in enumerate(ops):
            if is_write:
                ftl.write(lpn, i)
            else:
                ftl.read(lpn)
        assert ftl.stats.merges_total == 0
        # Every UMT entry points at a valid flash page holding that lpn.
        for lpn, ppn in ftl.umt.items():
            assert ftl.flash.page_state(ppn) is PageState.VALID
            assert ftl.flash.oob(ppn).lpn == lpn

    @SLOW
    @given(ops=ops_strategy)
    def test_flush_empties_umt_and_preserves_data(self, ops):
        ftl = build("LazyFTL")
        shadow = {}
        for i, (is_write, lpn) in enumerate(ops):
            if is_write:
                ftl.write(lpn, (lpn, i))
                shadow[lpn] = (lpn, i)
        ftl.flush()
        assert len(ftl.umt) == 0
        for lpn, value in shadow.items():
            assert ftl.read(lpn).data == value


class TestCrashRecoveryProperty:
    """Power loss at an arbitrary point must never lose acknowledged data."""

    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        fail_after=st.integers(min_value=0, max_value=400),
        interval=st.sampled_from([0, 17, 64]),
    )
    def test_recovery_preserves_acknowledged_writes(self, seed, fail_after,
                                                    interval):
        flash = NandFlash(
            FlashGeometry(num_blocks=28, pages_per_block=4, page_size=64),
            timing=UNIT_TIMING,
        )
        config = LazyConfig(uba_blocks=2, cba_blocks=2, gc_free_threshold=3,
                            checkpoint_interval=interval)
        ftl = LazyFTL(flash, LOGICAL, config)
        rng = random.Random(seed)
        shadow = {}
        inflight = None
        flash.fault.arm_after_programs(fail_after)
        try:
            for i in range(500):
                lpn = rng.randrange(LOGICAL)
                inflight = (lpn, (lpn, i))
                ftl.write(lpn, (lpn, i))
                shadow[lpn] = (lpn, i)
        except PowerLossError:
            pass
        recovered, _ = recover(flash, LOGICAL, config)
        for lpn, value in shadow.items():
            got = recovered.read(lpn).data
            ok = got == value or (
                inflight is not None and lpn == inflight[0]
                and got == inflight[1]
            )
            assert ok, f"lpn {lpn}: {got!r} != {value!r}"


class TestDataStructureProperties:
    @FAST_SETTINGS
    @given(values=st.lists(st.floats(min_value=0, max_value=1e6,
                                     allow_nan=False), min_size=1,
                           max_size=200))
    def test_latency_distribution_matches_reference(self, values):
        d = LatencyDistribution()
        for v in values:
            d.add(v)
        assert d.count == len(values)
        assert d.min == min(values)
        assert d.max == max(values)
        assert abs(d.mean - sum(values) / len(values)) < 1e-6 * max(
            1.0, max(values)
        )
        # percentiles are monotone and within range
        previous = 0.0
        for q in (10, 25, 50, 75, 90, 99, 100):
            p = d.percentile(q)
            assert min(values) <= p <= max(values)
            assert p >= previous
            previous = p

    @FAST_SETTINGS
    @given(
        lpns=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                      max_size=100),
        entries_per_page=st.integers(min_value=1, max_value=512),
    )
    def test_group_by_tvpn_partitions_input(self, lpns, entries_per_page):
        groups = group_by_tvpn(lpns, entries_per_page)
        flattened = [lpn for group in groups.values() for lpn in group]
        assert sorted(flattened) == sorted(lpns)
        for tvpn, group in groups.items():
            for lpn in group:
                assert lpn // entries_per_page == tvpn

    @FAST_SETTINGS
    @given(ops=st.lists(st.booleans(), max_size=200))
    def test_block_pool_never_duplicates(self, ops):
        pool = BlockPool(range(8))
        held = []
        for allocate in ops:
            if allocate and len(pool):
                held.append(pool.allocate())
            elif held:
                pool.release(held.pop())
            assert len(set(held)) == len(held)
            assert len(pool) + len(held) == 8

    @FAST_SETTINGS
    @given(
        lpns=st.lists(st.integers(min_value=0, max_value=10 ** 5),
                      min_size=1, max_size=50),
    )
    def test_umt_tvpn_index_consistent(self, lpns):
        umt = UpdateMappingTable(entries_per_page=16)
        for i, lpn in enumerate(lpns):
            umt.set(lpn, i)
        tvpns = {lpn // 16 for lpn in lpns}
        index = umt.pages_of(tvpns)
        assert index == {tvpn: {lpn for lpn in lpns if lpn // 16 == tvpn}
                         for tvpn in tvpns}
        assert {lpn for group in index.values() for lpn in group} == \
            {lpn for lpn, _ in umt.items()}
        for lpn in set(lpns):
            umt.discard(lpn)
        assert len(umt) == 0
        assert umt.pages_of(tvpns) == {}


class TestParserProperties:
    @FAST_SETTINGS
    @given(
        records=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),     # asu
                st.integers(min_value=0, max_value=4000),  # lba
                st.integers(min_value=1, max_value=8192),  # size
                st.sampled_from(["R", "W"]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_spc_compaction_preserves_page_identity(self, records):
        lines = [
            f"{asu},{lba},{size},{op},{i * 0.001}"
            for i, (asu, lba, size, op) in enumerate(records)
        ]
        sparse = parse_spc(lines, compact=False)
        compact = parse_spc(lines, compact=True)
        # Compaction is a bijection on pages: requests that touched equal
        # page sets before still touch equal page sets after.
        sparse_pages = [frozenset(r.pages) for r in sparse]
        mapping = {}
        start = 0
        for original in sparse:
            opages = sorted(original.pages)
            cpages = []
            needed = len(opages)
            while needed > 0:
                req = compact[start]
                cpages.extend(sorted(req.pages))
                needed -= req.npages
                start += 1
            assert len(cpages) == len(opages)
            for o, c in zip(opages, cpages):
                if o in mapping:
                    assert mapping[o] == c
                else:
                    mapping[o] = c
        assert len(set(mapping.values())) == len(mapping)
