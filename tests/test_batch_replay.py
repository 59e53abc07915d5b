"""Differential tests for the epoch-segmented batch-replay engine.

The engine (:mod:`repro.perf.batch`) promises statistics *bit-identical*
to the scalar replay loop.  These tests attack that promise from every
side:

* Hypothesis generates arbitrary mixed workloads (single- and
  multi-page requests, closed-loop and timestamped arrivals, with and
  without idle gaps) and asserts digest equality three ways - scalar vs
  batched on both kernel backends vs traced - per scheme;
* one function is the replay loop: warm-up, the untraced run, the traced
  run and the batch engine's boundary requests are all observed to
  execute it;
* the eligibility gate is probed directly: sanitized flash subclasses,
  attached tracers, armed fault injectors, powered-off devices and
  fractional timing models must all decline batching (and therefore
  replay scalar even under ``replay_mode="auto"``);
* the bulk-update primitives the executors lean on (``add_many``,
  ``record_many``, ``set_many``, ``touch_many``) are checked one by
  one against their per-element twins, including validation behaviour.

``tests/test_golden_stats.py`` pins the same contract against the
committed snapshot; here the workloads are adversarial instead of
golden, so planner edge cases (frontier exhaustion mid-epoch,
checkpoint budgets, unmapped reads, CMT misses) get fuzzed.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import OpLatencyRecorder, Tracer
from repro.perf import batch
from repro.perf.maptable import MapTable
from repro.sim.factory import default_lazy_config, standard_setup
from repro.sim.golden import engine_digest
from repro.sim.metrics import LatencyDistribution, ResponseStats
from repro.sim.runner import DeviceSpec, run_scheme
from repro.sim.simulator import Simulator
from repro.traces import IORequest, OpType, Trace

#: Tiny device: frontiers roll over and GC fires within dozens of
#: writes, so even short generated workloads cross epoch boundaries.
DEVICE = DeviceSpec(
    num_blocks=64, pages_per_block=8, page_size=512, logical_fraction=0.6
)

HAVE_NUMPY = batch._numpy is not None

#: Scheme x option cells the differential fuzz covers: the three
#: planner-registered schemes, plus LazyFTL's stateful ablation knobs
#: (the translation-page cache mutates on read; periodic checkpoints
#: bound write epochs; background GC turns the idle gaps of a
#: timestamped trace into real work, which sends the whole replay
#: through the scalar segment).
CELLS = [
    ("ideal", {}),
    ("DFTL", {}),
    ("LazyFTL", {}),
    ("LazyFTL", {"config": default_lazy_config(map_cache_pages=4)}),
    ("LazyFTL", {"config": default_lazy_config(checkpoint_interval=40)}),
    ("LazyFTL", {"config": default_lazy_config(background_gc=True)}),
]

#: Arrival spacings: closed loop, a saturated queue (25 us apart against
#: 200 us programs), and sparse arrivals that leave idle gaps.
ARRIVAL_STEPS = [0.0, 25.0, 1500.0]


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    batch.set_backend("auto")


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
        backends = ["fallback", "numpy"] if HAVE_NUMPY else ["fallback"]
        for backend in backends:
            batch.set_backend(backend)
            assert digest(replay_mode="auto") == reference, (
                f"{scheme} {options} diverged on the {backend} kernels"
            )
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
        for scheme in ("ideal", "DFTL", "LazyFTL"):
            assert batch.engine_for(self._ftl(scheme)) is not None

    def test_unregistered_schemes_decline(self):
        for scheme in ("BAST", "FAST", "LAST", "NFTL", "superblock"):
            assert batch.engine_for(self._ftl(scheme)) is None

    def test_sanitized_flash_declines(self):
        wrapped = self._ftl(sanitize=True)
        # The wrapper itself is not a registered scheme, and the inner
        # scheme's flash is a validating subclass: both must decline.
        assert batch.engine_for(wrapped) is None
        assert batch.engine_for(wrapped._ftl) is None

    def test_planes_only_geometry_is_a_serial_device(self):
        """Planes widen addressing, not timing: ``1x1x2`` has one
        parallel unit, so it is the plain serial device - the engine
        engages and agrees with scalar replay bit for bit."""
        assert batch.engine_for(self._ftl(planes=2)) is not None
        trace = make_trace(
            [(lpn % 4 != 3, lpn * 7 % 150, 1) for lpn in range(600)], 0.0)
        digests = [
            engine_digest(Simulator(
                self._ftl(planes=2), replay_mode=mode).run(trace))
            for mode in ("auto", "scalar")
        ]
        assert digests[0] == digests[1]

    def test_multi_unit_geometry_declines(self):
        assert batch.engine_for(self._ftl(channels=2)) is None
        assert batch.engine_for(self._ftl(dies=2)) is None

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

    def test_fractional_timing_declines(self):
        from repro.flash.timing import TimingModel

        fractional = TimingModel(
            page_read_us=25.5, page_program_us=200.0, block_erase_us=1500.0
        )
        ftl = self._ftl(timing=fractional)
        assert batch.engine_for(ftl) is None

    def test_background_gc_rejects_timestamped_traces(self):
        ftl = self._ftl(config=default_lazy_config(background_gc=True))
        engine = batch.engine_for(ftl)
        assert engine is not None
        closed = make_trace([(True, 0, 1)] * 12, 0.0)
        open_loop = make_trace([(True, 0, 1)] * 12, 50.0)
        assert engine.supports(closed)
        assert not engine.supports(open_loop)


class TestReplayModeSelection:
    def test_invalid_mode_raises(self):
        ftl = make_ftl("ideal")
        with pytest.raises(ValueError, match="replay_mode"):
            Simulator(ftl, replay_mode="vectorised")

    def test_batched_mode_is_gone(self):
        """``"batched"`` was a second spelling of ``"auto"``."""
        ftl = make_ftl("ideal")
        with pytest.raises(ValueError, match="replay_mode"):
            Simulator(ftl, replay_mode="batched")

    def test_environment_is_ignored(self, monkeypatch):
        """No environment variable picks a path: the constructor argument
        and ``set_backend`` are the only selectors."""
        monkeypatch.setenv("REPRO_REPLAY_MODE", "scalar")
        monkeypatch.setenv("REPRO_BATCH_FALLBACK", "1")
        ftl = make_ftl("ideal")
        assert Simulator(ftl).replay_mode == "auto"
        batch.set_backend("auto")
        assert batch.backend_name() == (
            "numpy" if HAVE_NUMPY else "fallback")

    def test_set_backend_selects_the_kernels(self):
        batch.set_backend("fallback")
        assert batch.backend_name() == "fallback"
        batch.set_backend("auto")
        assert batch.backend_name() == (
            "numpy" if HAVE_NUMPY else "fallback")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend"):
            batch.set_backend("simd")

    @pytest.mark.skipif(HAVE_NUMPY, reason="numpy is installed")
    def test_numpy_backend_without_numpy_raises(self):
        with pytest.raises(RuntimeError, match="numpy"):
            batch.set_backend("numpy")


class TestBulkPrimitives:
    def test_add_many_matches_sequential_add(self):
        values = [3.0, 0.0, 17.5, 2.0 ** 53 - 1, 0.25, 1e-9]
        one = LatencyDistribution()
        for value in values:
            one.add(value)
        bulk = LatencyDistribution()
        bulk.add_many(array("d", values))
        assert bulk.summary() == one.summary()

    def test_add_many_validates_before_mutating(self):
        dist = LatencyDistribution()
        dist.add(5.0)
        with pytest.raises(ValueError):
            dist.add_many([1.0, float("nan")])
        with pytest.raises(ValueError):
            dist.add_many([1.0, -2.0])
        assert dist.count == 1  # the failed batches left no residue

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_add_many_numpy_path_matches(self):
        np = batch._numpy
        values = np.asarray([1.0, 2.5, 0.0, 9.75])
        one = LatencyDistribution()
        for value in values:
            one.add(float(value))
        bulk = LatencyDistribution()
        bulk.add_many(values)
        assert bulk.summary() == one.summary()

    def test_record_many_routes_per_op(self):
        ops = bytes([1, 0, 0, 1, 0])
        responses = array("d", [10.0, 20.0, 30.0, 40.0, 50.0])
        one = ResponseStats()
        for op, resp in zip(ops, responses):
            one.record(bool(op), resp)
        bulk = ResponseStats()
        bulk.record_many(memoryview(ops), responses)
        assert bulk.summary() == one.summary()

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
        assert bulk.snapshot() == one.snapshot()
        assert len(bulk) == len(one)
