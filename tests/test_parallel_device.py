"""Unit and property tests for the parallel device model.

Covers the layers the multi-channel work added:

* :class:`FlashGeometry` parallel addressing - the block-interleaved
  layout (as the device's unit clocks see it) and its validation;
* :class:`NandFlash` busy-until timing on a multi-unit geometry -
  overlap across units, serialization within a unit, the
  ``serialize_timing`` lever, channel waits, the host-op clock reset,
  and error paths that charge and trace the same at 1 and N units;
* the host-op boundary, which the replay driver marks (never an FTL):
  every scheme gets the same clock model through ``Simulator.run``, and
  ``background_work`` is timed against its own origin;
* the Hypothesis property separating *placement* from *timing*: for
  random workloads, per-channel overlap never reorders or changes acked
  results - an N-channel run with serialized timing forced produces the
  same acked results as the serial run, and flipping overlap on changes
  per-op latencies (only downward) while placement stays bit-identical;
* the parallel probe (formerly ``benchmarks/perfbench.py``): what four
  channels buy LazyFTL in simulated time, with the latency
  decomposition exact under overlap timing.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import LazyConfig, LazyFTL
from repro.flash import (
    BadBlockError,
    EraseError,
    FlashError,
    FlashGeometry,
    NandFlash,
    OOBData,
    UNIT_TIMING,
)
from repro.flash.timing import SLC_TIMING
from repro.obs import OpLatencyRecorder, Tracer
from repro.obs.events import EventType
from repro.sim import SCHEMES, Simulator, standard_setup
from repro.sim.runner import DeviceSpec, run_scheme
from repro.traces import IORequest, OpType, Trace
from repro.traces.financial import financial1
from repro.traces.synthetic import uniform_random, warmup_fill


# ----------------------------------------------------------------------
# Geometry addressing
# ----------------------------------------------------------------------
class TestParallelGeometry:
    # 8 channels, 24 blocks -> 3 per channel.
    g = FlashGeometry(num_blocks=24, pages_per_block=4, page_size=64,
                      channels=8)

    def test_block_interleaved_layout(self):
        # Consecutive blocks round-robin over the channels: block b
        # overlaps block b + 1 and serializes with block b + units, where
        # the stripe wraps.
        units = self.g.channels
        for b in range(units):
            flash = NandFlash(self.g, timing=SLC_TIMING)
            flash.begin_host_op()
            flash.erase_block(b)
            assert flash.erase_block(b + 1) == 0.0
            assert flash.erase_block(b + units) \
                == SLC_TIMING.block_erase_us

    def test_channel_boundary_ppns(self):
        # Last page of block 0 and first page of block 1 sit on
        # different units under block interleaving.
        ppb = self.g.pages_per_block
        flash = NandFlash(self.g, timing=SLC_TIMING)
        for ppn in range(ppb - 1):
            flash.program_page(ppn, "a", OOBData(lpn=ppn, seq=ppn))
        flash.begin_host_op()
        assert flash.program_page(ppb - 1, "a", OOBData(lpn=0, seq=9)) \
            == SLC_TIMING.page_program_us
        assert flash.program_page(ppb, "b", OOBData(lpn=1, seq=10)) == 0.0

    def test_divisibility_validated(self):
        with pytest.raises(ValueError, match="divisible"):
            FlashGeometry(num_blocks=10, pages_per_block=4, page_size=64,
                          channels=4)

    def test_non_positive_parallelism_rejected(self):
        with pytest.raises(ValueError):
            FlashGeometry(num_blocks=8, pages_per_block=4, page_size=64,
                          channels=0)

    def test_repr_documents_layout(self):
        assert "8ch [channel = block % 8; ppn = block*4 + page]" \
            in repr(self.g)
        # Serial geometries keep the compact historical repr.
        assert "ch" not in repr(FlashGeometry(num_blocks=8,
                                              pages_per_block=4,
                                              page_size=64))


# ----------------------------------------------------------------------
# Busy-until timing
# ----------------------------------------------------------------------
def make_parallel(channels=2, blocks=8, pages=4, timing=SLC_TIMING):
    return NandFlash(
        FlashGeometry(num_blocks=blocks, pages_per_block=pages,
                      page_size=64, channels=channels),
        timing=timing,
    )


class TestParallelTiming:
    def test_single_unit_delta_equals_raw(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=4, pages_per_block=4, page_size=64),
            timing=SLC_TIMING,
        )
        flash.begin_host_op()
        assert flash.program_page(0, "a", OOBData(lpn=0, seq=1)) \
            == SLC_TIMING.page_program_us
        assert flash.program_page(1, "b", OOBData(lpn=1, seq=2)) \
            == SLC_TIMING.page_program_us
        _, latency = flash.read_page(0)
        assert latency == SLC_TIMING.page_read_us

    def test_cross_unit_programs_overlap(self):
        flash = make_parallel(channels=2)
        ppb = flash.geometry.pages_per_block
        flash.begin_host_op()
        # Block 0 -> unit 0, block 1 -> unit 1: the second program is
        # fully hidden behind the first, so its delta is zero.
        assert flash.program_page(0, "a", OOBData(lpn=0, seq=1)) \
            == SLC_TIMING.page_program_us
        assert flash.program_page(ppb, "b", OOBData(lpn=1, seq=2)) == 0.0
        assert flash._op_end == SLC_TIMING.page_program_us

    def test_same_unit_programs_serialize(self):
        flash = make_parallel(channels=2)
        flash.begin_host_op()
        flash.program_page(0, "a", OOBData(lpn=0, seq=1))
        # Same block -> same unit: no overlap, full delta.
        assert flash.program_page(1, "b", OOBData(lpn=1, seq=2)) \
            == SLC_TIMING.page_program_us

    def test_longer_op_pays_only_the_excess(self):
        flash = make_parallel(channels=2)
        flash.begin_host_op()
        flash.program_page(0, "a", OOBData(lpn=0, seq=1))          # unit 0
        # The erase on unit 1 starts at 0 and outlasts the program: its
        # delta is only the part past the current op makespan.
        assert flash.erase_block(1) \
            == SLC_TIMING.block_erase_us - SLC_TIMING.page_program_us
        # A read on unit 0 starts behind the program (t=200) and ends at
        # t=225, still inside the erase's shadow: free.
        _, latency = flash.read_page(0)
        assert latency == 0.0
        assert flash.unit_busy_us[0] \
            == SLC_TIMING.page_program_us + SLC_TIMING.page_read_us
        assert flash.unit_busy_us[1] == SLC_TIMING.block_erase_us

    def test_serialize_timing_restores_serial_latencies(self):
        flash = make_parallel(channels=2)
        flash.serialize_timing = True
        ppb = flash.geometry.pages_per_block
        flash.begin_host_op()
        assert flash.program_page(0, "a", OOBData(lpn=0, seq=1)) \
            == SLC_TIMING.page_program_us
        assert flash.program_page(ppb, "b", OOBData(lpn=1, seq=2)) \
            == SLC_TIMING.page_program_us
        assert flash.channel_wait_us == 0.0

    def test_begin_host_op_resets_clocks(self):
        flash = make_parallel(channels=2)
        flash.begin_host_op()
        flash.program_page(0, "a", OOBData(lpn=0, seq=1))
        flash.begin_host_op()
        assert flash._unit_busy == [0.0, 0.0]
        assert flash._op_end == 0.0
        assert flash.host_ops == 2
        # The next op on the same unit is full price again.
        assert flash.program_page(1, "b", OOBData(lpn=1, seq=2)) \
            == SLC_TIMING.page_program_us

    def test_channel_wait_measures_stripe_imbalance(self):
        flash = make_parallel(channels=2)
        flash.begin_host_op()
        flash.program_page(0, "a", OOBData(lpn=0, seq=1))  # unit 0 busy to 200
        # Second op also on unit 0 while unit 1 idles: it waited 200us
        # on its queue.
        flash.program_page(1, "b", OOBData(lpn=1, seq=2))
        assert flash.channel_wait_us == SLC_TIMING.page_program_us

    def test_stats_accrue_raw_latencies(self):
        flash = make_parallel(channels=2)
        ppb = flash.geometry.pages_per_block
        flash.begin_host_op()
        flash.program_page(0, "a", OOBData(lpn=0, seq=1))
        flash.program_page(ppb, "b", OOBData(lpn=1, seq=2))  # delta 0
        # Wear/energy accounting is overlap-independent.
        assert flash.stats.program_us == 2 * SLC_TIMING.page_program_us

    def test_parallel_summary_shape(self):
        flash = make_parallel(channels=2)
        flash.begin_host_op()
        flash.program_page(0, "a", OOBData(lpn=0, seq=1))
        summary = flash.parallel_summary()
        assert summary["units"] == 2
        assert summary["unit_busy_us"] == [SLC_TIMING.page_program_us, 0.0]
        assert summary["host_ops"] == 1

    def test_erase_charges_the_block_unit(self):
        flash = make_parallel(channels=2)
        flash.begin_host_op()
        flash.erase_block(0)
        flash.erase_block(1)
        assert flash.unit_busy_us == [SLC_TIMING.block_erase_us,
                                      SLC_TIMING.block_erase_us]


class _Spy:
    """Minimal tracer: records what the device reports, in order."""

    def __init__(self):
        self.calls = []

    def flash_op(self, event, addr, latency, lpn=None):
        self.calls.append((event, addr, latency))

    def channel_wait(self, wait_us):
        self.calls.append(("channel_wait", wait_us))


class TestErrorPathsChargeAndTrace:
    """The erases that raise *after* the charge - endurance failure and a
    block with valid pages - cost and report the same at 1 and N units
    (the clock sits between the stats update and the one trace emit)."""

    @staticmethod
    def script(channels):
        flash = NandFlash(
            FlashGeometry(num_blocks=8, pages_per_block=4, page_size=64,
                          channels=channels),
            timing=SLC_TIMING, endurance=1,
        )
        flash.tracer = _Spy()
        outcomes = []
        for op, args in (
            (flash.program_page, (0, "a", OOBData(lpn=0, seq=1))),
            (flash.erase_block, (0,)),       # valid page: EraseError
            (flash.invalidate_page, (0,)),
            (flash.erase_block, (0,)),       # the one erase endurance allows
            (flash.erase_block, (0,)),       # worn out: BadBlockError
            (flash.erase_block, (0,)),       # already bad: nothing charged
        ):
            flash.begin_host_op()
            try:
                outcomes.append(op(*args))
            except FlashError as exc:
                outcomes.append(type(exc))
        return flash, outcomes

    def test_same_outcomes_stats_and_events_at_1_and_4_units(self):
        serial, serial_outcomes = self.script(channels=1)
        striped, striped_outcomes = self.script(channels=4)
        erase_us = SLC_TIMING.block_erase_us
        assert serial_outcomes == striped_outcomes == [
            SLC_TIMING.page_program_us, EraseError, None, erase_us,
            BadBlockError, BadBlockError,
        ]
        assert striped.stats.as_dict() == serial.stats.as_dict()
        assert striped.stats.block_erases == 3
        assert striped.tracer.calls == serial.tracer.calls == [
            (EventType.PAGE_PROGRAM, 0, SLC_TIMING.page_program_us),
            (EventType.BLOCK_ERASE, 0, erase_us),
            (EventType.BLOCK_ERASE, 0, erase_us),
            (EventType.BLOCK_ERASE, 0, erase_us),
        ]

    def test_failed_erases_advance_the_unit_clock(self):
        flash, _ = self.script(channels=4)
        assert flash.unit_busy_us == [
            SLC_TIMING.page_program_us + 3 * SLC_TIMING.block_erase_us,
            0.0, 0.0, 0.0,
        ]
        # The last attempt hit the is-bad precheck: the clocks were
        # reset for it and nothing was charged.
        assert flash._op_end == 0.0


# ----------------------------------------------------------------------
# The host-op boundary belongs to the replay driver
# ----------------------------------------------------------------------
SMOKE_DEVICE = DeviceSpec(num_blocks=96, pages_per_block=16, page_size=512,
                          logical_fraction=0.7)
SMOKE_4CH = replace(SMOKE_DEVICE, channels=4)


class TestDriverMarksTheBoundary:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_host_op_is_cheaper_than_its_own_flash_op(self, scheme):
        """Every scheme gets the same clock model on 4 channels: a host write
        programs at least one page and a mapped read reads at least one,
        each against a fresh origin - consecutive host ops never overlap,
        whether or not the scheme stripes."""
        trace = uniform_random(600, 800, write_ratio=0.6, seed=5)
        result = run_scheme(scheme, trace, device=SMOKE_4CH,
                            warmup=warmup_fill(800))
        assert result.responses.writes.min >= SLC_TIMING.page_program_us
        assert result.responses.reads.min >= SLC_TIMING.page_read_us

    def test_background_work_is_timed_from_its_own_origin(self):
        """Idle-time GC is no part of the host op before it: the time
        ``background_work`` reports is the makespan of its own flash ops
        (per unit they run back to back from t=0, so the makespan is the
        busiest unit's raw time)."""
        flash, ftl, _ = standard_setup(
            "LazyFTL", num_blocks=48, pages_per_block=8, page_size=64,
            logical_fraction=0.25, timing=UNIT_TIMING, channels=2,
            config=LazyConfig(uba_blocks=4, cba_blocks=2,
                              gc_free_threshold=3, background_gc=True),
        )
        grants = []
        inner = ftl.background_work

        def spy(budget_us):
            before = list(flash.unit_busy_us)
            used = inner(budget_us)
            own = [now - was for now, was in zip(flash.unit_busy_us, before)]
            grants.append((used, max(own)))
            return used

        ftl.background_work = spy
        closed = uniform_random(1500, 96, seed=2)
        Simulator(ftl).run(Trace([
            IORequest(op=OpType.WRITE, lpn=request.lpn,
                      arrival_us=i * 40.0)
            for i, request in enumerate(closed)
        ], name="open-loop"))
        assert any(used > 0 for used, _ in grants)
        for used, makespan in grants:
            assert used == makespan


# ----------------------------------------------------------------------
# Property: placement determinism vs timing overlap
# ----------------------------------------------------------------------
LOGICAL = 96

OPS = st.lists(
    st.tuples(st.booleans(),
              st.integers(min_value=0, max_value=LOGICAL - 1)),
    min_size=1,
    max_size=250,
)

SLOW = settings(deadline=None, max_examples=20,
                suppress_health_check=[HealthCheck.too_slow])


def _lazy_on(flash):
    return LazyFTL(flash, logical_pages=LOGICAL,
                   config=LazyConfig(uba_blocks=4, cba_blocks=2,
                                     gc_free_threshold=3))


def _run(ftl, ops):
    """Replay ``ops``; return (acked results, per-op latencies).

    Drives a bare FTL, so it marks the host-op boundary itself (the
    simulator's job in a real replay).
    """
    acked = []
    latencies = []
    for i, (is_write, lpn) in enumerate(ops):
        ftl.flash.begin_host_op()
        if is_write:
            latency = ftl.write(lpn, (lpn, i))
            acked.append(("w", lpn))
        else:
            data, latency = ftl.read(lpn)
            acked.append(("r", lpn, data))
        latencies.append(latency)
    return acked, latencies


def _placement(flash):
    """Physical image: (state, data, lpn) for every page, in ppn order."""
    return [
        (state, data, oob.lpn if oob is not None else None)
        for state, data, oob in zip(
            flash.page_states, flash.page_data,
            map(flash.oob, range(len(flash.page_states))))
    ]


class TestOverlapNeverChangesResults:
    @SLOW
    @given(ops=OPS, channels=st.sampled_from([2, 4]))
    def test_overlap_vs_serialized_vs_serial(self, ops, channels):
        geometry = FlashGeometry(num_blocks=40, pages_per_block=8,
                                 page_size=64, channels=channels)
        serial_flash = NandFlash(
            FlashGeometry(num_blocks=40, pages_per_block=8, page_size=64),
            timing=UNIT_TIMING,
        )
        forced = NandFlash(geometry, timing=UNIT_TIMING)
        forced.serialize_timing = True
        overlapped = NandFlash(geometry, timing=UNIT_TIMING)

        serial_acked, _ = _run(_lazy_on(serial_flash), ops)
        forced_acked, forced_lat = _run(_lazy_on(forced), ops)
        over_acked, over_lat = _run(_lazy_on(overlapped), ops)

        # Timing overlap never reorders or changes acked results: the
        # N-channel runs ack exactly what the serial run acks, in order.
        assert forced_acked == serial_acked
        assert over_acked == serial_acked

        # Placement is timing-independent: forcing serial timing on the
        # same striped geometry leaves the physical image, raw-latency
        # stats and wear bit-identical to the overlapped run.
        assert _placement(forced) == _placement(overlapped)
        assert forced.stats.as_dict() == overlapped.stats.as_dict()

        # Overlap only ever shortens an op (deltas are clamped >= 0 and
        # bounded by the serial makespan of the same command sequence).
        for serialized_us, overlapped_us in zip(forced_lat, over_lat):
            assert overlapped_us <= serialized_us + 1e-9
            assert overlapped_us >= 0.0

    def test_serialized_conversions_place_as_overlapped(self):
        # The frontier places by the unit clocks, so serial timing must
        # leave them as overlap does: a seeded write-heavy run on two
        # channels, long enough for conversions that read GMT pages.
        rng = random.Random(0)
        ops = [(rng.random() < 0.7, rng.randrange(LOGICAL))
               for _ in range(400)]
        geometry = FlashGeometry(num_blocks=40, pages_per_block=8,
                                 page_size=64, channels=2)
        forced = NandFlash(geometry, timing=UNIT_TIMING)
        forced.serialize_timing = True
        overlapped = NandFlash(geometry, timing=UNIT_TIMING)
        forced_ftl = _lazy_on(forced)
        forced_acked, _ = _run(forced_ftl, ops)
        over_acked, _ = _run(_lazy_on(overlapped), ops)
        assert forced_ftl.stats.converts > 0
        assert forced_ftl.stats.map_reads > 0
        assert forced_acked == over_acked
        assert _placement(forced) == _placement(overlapped)
        assert forced.busy_until == overlapped.busy_until


# ----------------------------------------------------------------------
# The parallel probe: what the channels buy, and that the books balance
# ----------------------------------------------------------------------
class TestParallelProbe:
    """LazyFTL's macro workload (synthetic Financial1, steady state) on
    the smoke device, serial vs 4 channels.  Both runs are deterministic, so
    the floors are noise-free."""

    #: Minimum *simulated* gain of four channels (``device_busy_us`` is
    #: the sum of per-op service makespans - simulated time under the
    #: closed-loop model).
    MIN_SPEEDUP = 1.5
    #: Minimum fraction of service time attributed to a named cause.
    MIN_ATTRIBUTED = 0.99

    def test_four_channels_pay_and_the_decomposition_stays_exact(self):
        trace = financial1(2500, SMOKE_DEVICE.logical_pages, seed=202)
        serial = run_scheme("LazyFTL", trace, device=SMOKE_DEVICE,
                            precondition="steady")
        recorder = OpLatencyRecorder()
        striped = run_scheme("LazyFTL", trace, device=SMOKE_4CH,
                             precondition="steady",
                             tracer=Tracer(latency=recorder))
        assert serial.device_busy_us / striped.device_busy_us \
            >= self.MIN_SPEEDUP
        summary = recorder.scheme_summary("LazyFTL")
        # Channel waits are reported beside the decomposition and never
        # leak into unattributed time.
        assert summary["classes"]["overall"]["attributed_fraction"] \
            >= self.MIN_ATTRIBUTED
        assert summary["invariant"]["checked_ops"] == trace.page_ops
        assert summary["invariant"]["violations"] == 0
        assert summary["channel_wait"]["total_us"] > 0
