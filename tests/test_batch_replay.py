"""Differential tests for the epoch-segmented batch-replay engine.

The engine (:mod:`repro.perf.batch`) promises statistics *bit-identical*
to the scalar replay loop.  These tests attack that promise from every
side:

* Hypothesis generates arbitrary mixed workloads (single- and
  multi-page requests, closed-loop and timestamped arrivals, with and
  without idle gaps) and asserts digest equality three ways - scalar vs
  batched vs traced - per LazyFTL option cell
  (timestamped traces check that open-loop replay stays scalar);
* one function is the replay loop: warm-up, the untraced run, the traced
  run and the batch engine's boundary requests are all observed to
  execute it;
* the eligibility gate is probed directly: sanitized flash subclasses,
  attached tracers, armed fault injectors, powered-off devices and
  serial-timed devices must all decline batching (and therefore
  replay scalar even under ``replay_mode="auto"``);
* the bulk-update primitives the executors lean on (``record_many``,
  ``set_many``) are checked one by one against their
  per-element twins, including validation behaviour.

``tests/test_golden_stats.py`` pins the same contract against the
committed snapshot; here the workloads are adversarial instead of
golden, so planner edge cases (frontier exhaustion mid-epoch,
checkpoint budgets, unmapped reads) get fuzzed.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import LatencyDistribution, OpLatencyRecorder, Tracer
from repro.perf import batch
from repro.perf.maptable import MapTable
from repro.sim.factory import default_lazy_config, standard_setup
from repro.sim.golden import engine_digest
from repro.sim.metrics import ResponseStats
from repro.sim.runner import DeviceSpec, run_scheme
from repro.sim.simulator import Simulator
from repro.traces import IORequest, OpType, Trace

#: Tiny device: frontiers roll over and GC fires within dozens of
#: writes, so even short generated workloads cross epoch boundaries.
DEVICE = DeviceSpec(
    num_blocks=64, pages_per_block=8, page_size=512, logical_fraction=0.6
)

#: Option cells the differential fuzz covers: LazyFTL, the one scheme
#: with an epoch planner, plus its stateful ablation knobs (periodic
#: checkpoints bound write epochs; background GC does real work in the
#: idle gaps of a timestamped trace, which replays in the scalar
#: segment).
CELLS = [
    ("LazyFTL", {}),
    ("LazyFTL", {"config": default_lazy_config(checkpoint_interval=40)}),
    ("LazyFTL", {"config": default_lazy_config(background_gc=True)}),
]

#: Arrival spacings: closed loop, a saturated queue (25 us apart against
#: 200 us programs), and sparse arrivals that leave idle gaps.
ARRIVAL_STEPS = [0.0, 25.0, 1500.0]


def make_ftl(scheme="LazyFTL", **kwargs):
    _, ftl, _ = standard_setup(
        scheme, num_blocks=DEVICE.num_blocks,
        pages_per_block=DEVICE.pages_per_block, page_size=DEVICE.page_size,
        logical_fraction=DEVICE.logical_fraction, **kwargs,
    )
    return ftl


def make_trace(drawn, arrival_step):
    """Build a trace from drawn (op, lpn, npages) triples.

    ``arrival_step > 0`` stamps monotone arrivals (open-loop replay with
    idle gaps); NaN-free zero step means closed loop.
    """
    logical = DEVICE.logical_pages
    requests = []
    now = 0.0
    for is_write, lpn, npages in drawn:
        npages = min(npages, logical - lpn)
        if npages <= 0:
            continue
        requests.append(IORequest(
            op=OpType.WRITE if is_write else OpType.READ,
            lpn=lpn, npages=npages,
            arrival_us=now if arrival_step else None,
        ))
        now += arrival_step
    return Trace(requests, name="fuzz")


request_lists = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=DEVICE.logical_pages - 1),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=10,
    max_size=120,
)


class TestDifferentialFuzz:
    @settings(deadline=None, max_examples=15)
    @given(drawn=request_lists,
           arrival_step=st.sampled_from(ARRIVAL_STEPS),
           cell=st.sampled_from(range(len(CELLS))))
    def test_batched_replay_is_bit_identical(
        self, drawn, arrival_step, cell
    ):
        scheme, options = CELLS[cell]
        trace = make_trace(drawn, arrival_step)

        def digest(**how):
            return engine_digest(run_scheme(
                scheme, trace, device=DEVICE, precondition="steady",
                **how, **options,
            ))

        reference = digest(replay_mode="scalar")
        assert digest(replay_mode="auto") == reference, (
            f"{scheme} {options} diverged batched")
        traced = digest(tracer=Tracer(latency=OpLatencyRecorder()))
        assert traced == reference, f"{scheme} {options} diverged traced"

    @settings(deadline=None, max_examples=10)
    @given(drawn=request_lists)
    def test_warm_up_leaves_identical_state(self, drawn):
        """warm_up dispatches through the same kernels; the post-warm-up
        *measured* run must not care which mode warmed the device - nor
        whether the warm-up trace carried timestamps, which warm-up
        ignores (background GC on, so a granted idle gap would show)."""
        probe = make_trace(
            [(False, lpn, 1) for lpn in range(0, DEVICE.logical_pages, 7)],
            0.0,
        )
        digests = []
        for mode in ("scalar", "auto"):
            for arrival_step in (0.0, 1500.0):
                ftl = make_ftl(
                    config=default_lazy_config(background_gc=True))
                simulator = Simulator(ftl, replay_mode=mode)
                simulator.warm_up(make_trace(drawn, arrival_step))
                digests.append(engine_digest(simulator.run(probe)))
        assert all(digest == digests[0] for digest in digests[1:])


class TestOneReplayLoop:
    """``Simulator._replay`` is the only per-request loop: every host
    page op and run op of every kind of replay is issued from inside it."""

    @pytest.mark.parametrize(
        "how", ["warm_up", "untraced", "traced", "batched"])
    def test_every_replay_runs_the_one_loop(self, monkeypatch, how):
        state = {"depth": 0, "calls": 0, "host_ops": 0}
        original = Simulator._replay

        def replay_spy(self, cols, responses):
            state["calls"] += 1
            state["depth"] += 1
            try:
                return original(self, cols, responses)
            finally:
                state["depth"] -= 1

        monkeypatch.setattr(Simulator, "_replay", replay_spy)
        ftl = make_ftl()
        state["in_run"] = False
        for name in ("read", "write"):
            def host_spy(*args, _real=getattr(ftl, name)):
                assert state["depth"] == 1, "host op outside _replay"
                # A run op may itself be the page loop: its pages were
                # counted when the driver issued it.
                state["host_ops"] += not state["in_run"]
                return _real(*args)
            monkeypatch.setattr(ftl, name, host_spy)
        for name in ("read_run", "write_run"):
            def run_spy(lpn, pages, *hooks, _real=getattr(ftl, name)):
                assert state["depth"] == 1, "host run op outside _replay"
                state["host_ops"] += \
                    pages if isinstance(pages, int) else len(pages)
                state["in_run"] = True
                try:
                    return _real(lpn, pages, *hooks)
                finally:
                    state["in_run"] = False
            monkeypatch.setattr(ftl, name, run_spy)
        trace = make_trace(
            [(lpn % 3 != 2, lpn % 150, 1 + (lpn % 29 == 0))
             for lpn in range(400)], 0.0)
        if how == "warm_up":
            Simulator(ftl, replay_mode="scalar").warm_up(trace)
        elif how == "untraced":
            Simulator(ftl, replay_mode="scalar").run(trace)
        elif how == "traced":
            Simulator(ftl, tracer=Tracer()).run(trace)
        else:
            Simulator(ftl).run(trace)
        assert state["calls"] == 1
        done = ftl.stats.host_reads + ftl.stats.host_writes
        assert done == trace.page_ops
        if how == "batched":
            # Epochs carried the rest; the boundary requests between
            # them went through the loop's own body.
            assert 0 < state["host_ops"] < trace.page_ops
        else:
            assert state["host_ops"] == trace.page_ops

    def test_batch_engine_has_no_loop_of_its_own(self):
        assert not hasattr(batch.BatchEngine, "replay")
        assert not hasattr(batch.BatchEngine, "warm")


class TestEligibilityGate:
    _ftl = staticmethod(make_ftl)

    def test_registered_schemes_get_an_engine(self):
        """LazyFTL is the one scheme with an epoch planner."""
        assert batch.engine_for(self._ftl("LazyFTL")) is not None

    def test_unregistered_schemes_decline(self):
        for scheme in ("ideal", "DFTL", "BAST", "FAST", "superblock"):
            assert batch.engine_for(self._ftl(scheme)) is None

    def test_sanitized_flash_declines(self):
        wrapped = self._ftl(sanitize=True)
        # The wrapper itself is not a registered scheme, and the inner
        # scheme's flash is a validating subclass: both must decline.
        assert batch.engine_for(wrapped) is None
        assert batch.engine_for(wrapped._ftl) is None

    def test_multi_unit_geometry_declines(self):
        assert batch.engine_for(self._ftl(channels=2)) is None

    def test_striped_device_declines_though_it_takes_runs(self):
        """An epoch is timed on one clock: ``engine_for`` declines a
        multi-channel device itself, not through ``takes_runs()``, which
        says yes there."""
        ftl = self._ftl(channels=4)
        assert ftl.flash.takes_runs()
        assert batch.engine_for(ftl) is None

    def test_attached_tracer_declines(self):
        from repro.obs import Tracer

        ftl = self._ftl()
        ftl.attach_tracer(Tracer())
        assert batch.engine_for(ftl) is None

    def test_armed_fault_injector_declines(self):
        ftl = self._ftl()
        ftl.flash.fault.arm_after_programs(10)
        assert batch.engine_for(ftl) is None

    def test_powered_off_device_declines(self):
        ftl = self._ftl()
        ftl.flash.power_off()
        assert batch.engine_for(ftl) is None

    def test_serialized_timing_declines(self):
        """On one channel ``serialize_timing`` changes no latency, only
        ``takes_runs()``: the engine declines through it."""
        ftl = self._ftl()
        ftl.flash.serialize_timing = True
        assert not ftl.flash.takes_runs()
        assert batch.engine_for(ftl) is None

    def test_background_gc_rejects_timestamped_traces(self):
        ftl = self._ftl(config=default_lazy_config(background_gc=True))
        engine = batch.engine_for(ftl)
        assert engine is not None
        closed = make_trace([(True, 0, 1)] * 12, 0.0)
        open_loop = make_trace([(True, 0, 1)] * 12, 50.0)
        assert engine.supports(closed)
        assert not engine.supports(open_loop)

    def test_timestamped_traces_replay_scalar(self):
        """The one timing kernel is the closed-loop one: a timestamped
        trace replays in the scalar segment even when idle gaps are no-ops,
        and agrees with forced scalar replay bit for bit."""
        engine = batch.engine_for(self._ftl())
        open_loop = make_trace(
            [(lpn % 4 == 3, lpn * 7 % 150, 1) for lpn in range(400)], 25.0)
        assert not engine.supports(open_loop)
        digests = [
            engine_digest(Simulator(self._ftl(), replay_mode=mode)
                          .run(open_loop))
            for mode in ("auto", "scalar")
        ]
        assert digests[0] == digests[1]


class TestReplayModeSelection:
    def test_invalid_mode_raises(self):
        ftl = make_ftl()
        with pytest.raises(ValueError, match="replay_mode"):
            Simulator(ftl, replay_mode="vectorised")

    def test_batched_mode_is_gone(self):
        """``"batched"`` was a second spelling of ``"auto"``."""
        ftl = make_ftl()
        with pytest.raises(ValueError, match="replay_mode"):
            Simulator(ftl, replay_mode="batched")

    def test_environment_is_ignored(self, monkeypatch):
        """No environment variable picks a path: the constructor argument
        picks the replay, and every epoch takes the one numpy kernel."""
        monkeypatch.setenv("REPRO_REPLAY_MODE", "scalar")
        monkeypatch.setenv("REPRO_BATCH_FALLBACK", "1")
        ftl = make_ftl()
        assert Simulator(ftl).replay_mode == "auto"
        assert batch.backend_name() == "numpy"


class TestBulkPrimitives:
    def test_record_many_routes_per_op(self):
        ops = bytes([1, 0, 0, 1, 0])
        responses = array("d", [10.0, 20.0, 30.0, 40.0, 50.0])
        one = ResponseStats()
        for op, resp in zip(ops, responses):
            one.record(bool(op), resp)
        bulk = ResponseStats()
        bulk.record_many(memoryview(ops), responses)
        assert bulk.summary() == one.summary()

    @pytest.mark.parametrize("form", ["array", "ndarray"])
    def test_record_many_takes_any_float_sequence(self, form):
        values = [10.0, 20.0, 5.0, 40.0]
        responses = array("d", values) if form == "array" \
            else np.array(values)
        one = ResponseStats()
        for resp in values:
            one.record(False, resp)
        bulk = ResponseStats()
        bulk.record_many(memoryview(bytes(4)), responses)
        assert bulk.summary() == one.summary()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_record_many_rejects_before_recording(self, bad):
        """The one validation pass: a NaN, an infinity or a negative
        sample anywhere in the batch raises and records nothing."""
        bulk = ResponseStats()
        with pytest.raises(ValueError, match="finite|non-negative"):
            bulk.record_many(memoryview(bytes([1, 0, 1])),
                             np.array([10.0, bad, 30.0]))
        assert (bulk.overall.count, bulk.reads.count,
                bulk.writes.count) == (0, 0, 0)

    @pytest.mark.parametrize("head", [[], [1.0], [50.0]])
    def test_extend_unchecked_matches_add(self, head):
        """Unsorted input after a sorted or empty buffer: count, total,
        min, max, every percentile and the sorted flag (as the queries
        fold it in) end as ``add`` one value at a time leaves them, and
        the total is the sequential sum (pairwise summation, as
        ``np.sum``, gives 1.0000000000000034e16 for these values)."""
        values = [12.25, 1e16, 3.0, 12.25, 0.7, 3.0, 0.7, 0.7]
        one = LatencyDistribution()
        bulk = LatencyDistribution()
        for value in head:
            one.add(value)
            bulk.add(value)
        for value in values:
            one.add(value)
        bulk._extend_unchecked(np.array(values))
        assert (bulk.count, bulk.total, bulk.min, bulk.max) == \
            (one.count, one.total, one.min, one.max)
        total = 0.0
        for value in head + values:
            total += value
        assert bulk.total == total
        assert bulk._sorted == one._sorted is False
        for q in (1, 25, 50, 75, 99.9, 100):
            assert bulk.percentile(q) == one.percentile(q)
        assert bulk._sorted is one._sorted is True

    def test_set_many_matches_setitem(self):
        one = MapTable(16)
        bulk = MapTable(16)
        pairs = [(3, 30), (1, 10), (3, 31)]
        for index, value in pairs:
            one[index] = value
        bulk.set_many(pairs)
        assert bulk.snapshot() == one.snapshot()
        with pytest.raises(ValueError):
            bulk.set_many([(0, -1)])

    def test_umt_set_many_matches_set(self):
        from repro.core.umt import UpdateMappingTable

        one = UpdateMappingTable(entries_per_page=8)
        bulk = UpdateMappingTable(entries_per_page=8)
        pairs = [(5, 50), (21, 210), (5, 51)]
        for lpn, ppn in pairs:
            one.set(lpn, ppn)
        bulk.set_many(pairs)
        assert dict(bulk.items()) == dict(one.items())
        assert len(bulk) == len(one)
