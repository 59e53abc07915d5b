"""Behavioural conformance suite shared by every FTL implementation.

Each FTL test module subclasses :class:`FTLConformance` and provides a
``make_ftl`` factory.  The suite checks the contract every scheme must obey:
read-your-writes under heavy overwrite pressure, GC sustainability, latency
accounting sanity, and bounds checking.  Running the same assertions against
all five schemes is what makes the cross-scheme benchmarks trustworthy.
"""

import random

import pytest

from repro.flash import FlashGeometry, NandFlash, UNIT_TIMING


class FTLConformance:
    """Mixin of behavioural tests; subclasses define ``make_ftl``.

    Set ``SANITIZE = True`` in a subclass to run the whole suite under the
    flashsan sanitizer (see repro.checks): the device validates every raw
    operation, the FTL is wrapped in ``SanitizedFTL`` (every read checked
    against its host-state model), and any contract breach fails the test
    with a structured report.
    """

    #: Device used by the conformance workloads (small so GC churns).
    GEOMETRY = FlashGeometry(num_blocks=48, pages_per_block=16, page_size=2048)
    #: Logical space: ~62 % of physical, plenty of GC slack.
    LOGICAL_PAGES = 480
    #: Run every conformance test under the flashsan sanitizer.
    SANITIZE = False

    def make_ftl(self, flash):  # pragma: no cover - overridden
        raise NotImplementedError

    def new_device(self, sanitize=False, **device_kwargs):
        """Fresh device for :attr:`GEOMETRY`; ``device_kwargs``
        (``endurance``, ``initial_bad_blocks``) go to its constructor."""
        cls = NandFlash
        if sanitize:
            from repro.checks import SanitizedNandFlash as cls
        return cls(self.GEOMETRY, timing=UNIT_TIMING, **device_kwargs)

    def new_ftl(self, **device_kwargs):
        if self.SANITIZE:
            from repro.checks import SanitizedFTL

            flash = self.new_device(sanitize=True, **device_kwargs)
            ftl = self.make_ftl(flash)
            flash.enforce_sequential = not ftl.requires_random_program
            return SanitizedFTL(ftl)
        flash = self.new_device(**device_kwargs)
        ftl = self.make_ftl(flash)
        flash.enforce_sequential = not ftl.requires_random_program
        return ftl

    # ------------------------------------------------------------------
    # Basic contract
    # ------------------------------------------------------------------
    def test_unwritten_page_reads_none(self):
        ftl = self.new_ftl()
        assert ftl.read(0).data is None

    def test_read_your_write(self):
        ftl = self.new_ftl()
        ftl.write(7, "payload")
        assert ftl.read(7).data == "payload"

    def test_overwrite_returns_latest(self):
        ftl = self.new_ftl()
        for v in range(5):
            ftl.write(3, f"v{v}")
        assert ftl.read(3).data == "v4"

    def test_writes_do_not_leak_across_lpns(self):
        ftl = self.new_ftl()
        ftl.write(1, "one")
        ftl.write(2, "two")
        assert ftl.read(1).data == "one"
        assert ftl.read(2).data == "two"

    def test_lpn_bounds_checked(self):
        ftl = self.new_ftl()
        with pytest.raises(ValueError):
            ftl.read(self.LOGICAL_PAGES)
        with pytest.raises(ValueError):
            ftl.write(-1, "x")

    def test_latencies_are_nonnegative_and_finite(self):
        """Host ops return what device ops return: a write, a run write
        and a trim their latency as a float, a read and a run read the
        pair ``(data, latency_us)``."""
        ftl = self.new_ftl()
        for latency in (ftl.write(0, "x"), ftl.write_run(1, ["y", "z"]),
                        ftl.trim(3)):
            assert isinstance(latency, float)
            assert 0 <= latency < 1e9
        for result, data in ((ftl.read(0), "x"),
                             (ftl.read_run(0, 3), ["x", "y", "z"])):
            assert isinstance(result, tuple) and len(result) == 2
            assert result[0] == result.data == data
            assert result[1] == result.latency_us
            assert 0 <= result.latency_us < 1e9

    # ------------------------------------------------------------------
    # Sustained pressure: GC correctness
    # ------------------------------------------------------------------
    def test_random_overwrite_integrity(self):
        """Write far more pages than the device holds; verify every value."""
        ftl = self.new_ftl()
        rng = random.Random(42)
        expected = {}
        n_ops = self.LOGICAL_PAGES * 6
        for i in range(n_ops):
            lpn = rng.randrange(self.LOGICAL_PAGES)
            ftl.write(lpn, (lpn, i))
            expected[lpn] = (lpn, i)
        for lpn, value in expected.items():
            assert ftl.read(lpn).data == value, f"lpn {lpn} corrupted"

    def test_sequential_overwrite_integrity(self):
        ftl = self.new_ftl()
        for sweep in range(4):
            for lpn in range(self.LOGICAL_PAGES):
                ftl.write(lpn, (lpn, sweep))
        for lpn in range(self.LOGICAL_PAGES):
            assert ftl.read(lpn).data == (lpn, 3)

    def test_hot_spot_hammering(self):
        """Hammer a few pages; GC must not starve or corrupt them."""
        ftl = self.new_ftl()
        hot = [0, 1, 2, 3]
        for i in range(2500):
            lpn = hot[i % len(hot)]
            ftl.write(lpn, i)
        for j, lpn in enumerate(hot):
            last_i = max(i for i in range(2500) if i % len(hot) == j)
            assert ftl.read(lpn).data == last_i

    def test_multi_page_requests_read_their_writes(self):
        """The host run ops under GC pressure: 1-16-page ``write_run`` /
        ``read_run`` requests, every page of every read checked (and,
        sanitized, cross-checked against the host-state model page by
        page)."""
        ftl = self.new_ftl()
        rng = random.Random(77)
        expected = {}
        for i in range(self.LOGICAL_PAGES):
            n = rng.randint(1, 16)
            lpn = rng.randrange(self.LOGICAL_PAGES - n + 1)
            if rng.random() < 0.6:
                datas = [(page, i) for page in range(lpn, lpn + n)]
                ftl.write_run(lpn, datas)
                expected.update(zip(range(lpn, lpn + n), datas))
            else:
                assert ftl.read_run(lpn, n).data == [
                    expected.get(page) for page in range(lpn, lpn + n)]
        assert ftl.flash.stats.block_erases > 0
        with pytest.raises(ValueError):
            ftl.read_run(self.LOGICAL_PAGES - 1, 2)
        # A run that starts outside names its first page, as read() does.
        with pytest.raises(
                ValueError, match=f"lpn {self.LOGICAL_PAGES + 5} outside"):
            ftl.read_run(self.LOGICAL_PAGES + 5, 2)
        with pytest.raises(ValueError):
            ftl.write_run(self.LOGICAL_PAGES - 1, ["x", "y"])
        expected[self.LOGICAL_PAGES - 1] = "x"  # written before the raise
        for lpn, value in expected.items():
            assert ftl.read(lpn).data == value, f"lpn {lpn} corrupted"

    def test_gc_actually_runs_under_pressure(self):
        ftl = self.new_ftl()
        rng = random.Random(1)
        for i in range(self.LOGICAL_PAGES * 6):
            ftl.write(rng.randrange(self.LOGICAL_PAGES), i)
        assert ftl.flash.stats.block_erases > 0

    # ------------------------------------------------------------------
    # Bad blocks and wear-out
    # ------------------------------------------------------------------
    #: Factory-bad blocks of the wear-out device (not a LazyFTL anchor).
    BAD_BLOCKS = (3, 17)

    def wear_out(self, endurance, until_retired=None):
        """Random overwrites on a device with factory-bad blocks and a
        finite erase budget, reading one earlier write back per step.

        Stops once ``until_retired`` or more blocks have worn out (one
        write's GC passes can retire several: wear is even, so blocks
        wear out together), or - with None - when the device dies, which
        must be a clean ``OutOfBlocksError`` (a ``BadBlockError``
        escaping the scheme fails the test).  Returns
        ``(ftl, acked, died)``.
        """
        from repro.ftl import OutOfBlocksError

        ftl = self.new_ftl(endurance=endurance,
                           initial_bad_blocks=self.BAD_BLOCKS)
        rng = random.Random(0)
        acked = {}
        try:
            for i in range(400_000):
                if until_retired is not None and \
                        ftl.stats.bad_blocks_retired >= until_retired:
                    return ftl, acked, False
                lpn = rng.randrange(self.LOGICAL_PAGES)
                ftl.write(lpn, (lpn, i))
                acked[lpn] = (lpn, i)
                probe = rng.choice(list(acked)) if i % 16 == 0 else lpn
                assert ftl.read(probe).data == acked[probe], (
                    f"op {i}: lpn {probe} lost on a wearing device")
        except OutOfBlocksError:
            return ftl, acked, True
        raise AssertionError("the erase budget never ran out")

    def test_wear_out_retired_without_data_loss(self):
        """Factory-bad blocks are never allocated and a block that wears
        out is retired under the scheme's feet: nothing acknowledged is
        lost and the device carries on."""
        ftl, acked, died = self.wear_out(endurance=20, until_retired=2)
        assert not died, "two retired blocks must not exhaust the device"
        for lpn, value in acked.items():
            assert ftl.read(lpn).data == value, f"lpn {lpn} corrupted"
        for pbn in self.BAD_BLOCKS:
            assert ftl.flash.write_ptr[pbn] == 0, (
                f"factory-bad block {pbn} was allocated")

    def test_device_end_of_life_raises_cleanly(self):
        """When wear-out eats the spare capacity the scheme fails with
        OutOfBlocksError - never a BadBlockError - read-your-writes held
        for every operation up to that point, and everything it
        acknowledged stays readable on the dead device.

        DFTL alone may *raise* OutOfBlocksError from such a read (a CMT
        miss can evict a dirty entry, which writes a translation page);
        no scheme may return wrong data.
        """
        from repro.ftl import DftlFTL, OutOfBlocksError

        ftl, acked, died = self.wear_out(endurance=6)
        assert died
        assert ftl.stats.bad_blocks_retired > 0
        reads_may_allocate = isinstance(getattr(ftl, "wrapped", ftl),
                                        DftlFTL)
        for lpn, value in acked.items():
            try:
                got = ftl.read(lpn).data
            except OutOfBlocksError:
                assert reads_may_allocate, (
                    f"lpn {lpn}: read raised on the dead device")
                continue
            assert got == value, f"lpn {lpn}: acknowledged write lost"

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def test_power_cycle_mid_trace(self):
        """Cut power mid-trace and run the standard recovery protocol.

        Recovery-capable schemes (see ``repro.sim.RECOVERABLE_SCHEMES``)
        must pass full read-back conformance afterwards: every
        acknowledged write reads back exactly, the single in-flight write
        reads back old-or-new, untouched pages stay empty.  Schemes with
        no recovery design must refuse with a clean
        ``RecoveryUnsupportedError`` instead of returning a silently
        corrupted instance.
        """
        from repro.flash import PowerLossError
        from repro.sim import (
            RecoveryUnsupportedError,
            recover_ftl,
            supports_recovery,
        )

        # An unsanitized device, even for SANITIZE subclasses: the
        # sanitizer wrapper keeps a RAM host-state model that legitimately
        # dies with the power, so recovery always starts from the raw chip.
        flash = self.new_device()
        ftl = self.make_ftl(flash)
        flash.enforce_sequential = not ftl.requires_random_program
        rng = random.Random(4242)
        acked = {}
        inflight = None
        flash.fault.arm_at_op_index(self.LOGICAL_PAGES * 2)
        try:
            for i in range(self.LOGICAL_PAGES * 6):
                lpn = rng.randrange(self.LOGICAL_PAGES)
                inflight = (lpn, (lpn, i))
                ftl.write(lpn, (lpn, i))
                acked[lpn] = (lpn, i)
                inflight = None
        except PowerLossError:
            pass
        assert flash.fault.tripped, "workload never reached the cut"
        if not supports_recovery(ftl):
            with pytest.raises(RecoveryUnsupportedError):
                recover_ftl(ftl)
            return
        recovered = recover_ftl(ftl)
        for lpn, value in acked.items():
            got = recovered.read(lpn).data
            if inflight is not None and lpn == inflight[0]:
                assert got in (value, inflight[1]), (
                    f"lpn {lpn}: interrupted write must surface old or "
                    f"new data, got {got!r}"
                )
            else:
                assert got == value, (
                    f"lpn {lpn}: acknowledged {value!r} lost, got {got!r}"
                )
        for lpn in range(self.LOGICAL_PAGES):
            if lpn in acked or (inflight and lpn == inflight[0]):
                continue
            assert recovered.read(lpn).data is None, (
                f"lpn {lpn} was never written but has data after recovery"
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def test_host_counters(self):
        ftl = self.new_ftl()
        for lpn in range(10):
            ftl.write(lpn, lpn)
        for lpn in range(5):
            ftl.read(lpn)
        assert ftl.stats.host_writes == 10
        assert ftl.stats.host_reads == 5

    def test_ram_bytes_positive(self):
        ftl = self.new_ftl()
        assert ftl.ram_bytes() > 0

    def test_latency_decomposition_sums_to_op_latency(self):
        """Every op's cause buckets (+ unattributed) sum to its latency.

        The flashsan-checked observability invariant, asserted per op:
        with a latency recorder attached, the flash time observed during
        one host operation, bucketed by cause, must account for exactly
        the latency the FTL charged - across GC storms, merges and
        translation traffic alike.
        """
        from repro.obs import OpLatencyRecorder, Tracer

        ftl = self.new_ftl()
        recorder = OpLatencyRecorder()
        tracer = Tracer(latency=recorder)
        ftl.attach_tracer(tracer)
        tracer.begin_run(ftl.name)
        rng = random.Random(77)
        n_ops = self.LOGICAL_PAGES * 4
        for i in range(n_ops):
            lpn = rng.randrange(self.LOGICAL_PAGES)
            if rng.random() < 0.75:
                latency = ftl.write(lpn, i)
                tracer.host_op(True, lpn, latency)
            else:
                _, latency = ftl.read(lpn)
                tracer.host_op(False, lpn, latency)
            last = recorder.last_op
            assert last is not None
            assert last.parts_total() == pytest.approx(
                latency, abs=1e-6
            ), f"op {i}: decomposition does not sum to the op latency"
        verdict = recorder.invariants()[ftl.name]
        assert verdict["checked_ops"] == n_ops
        assert verdict["violations"] == 0
        if self.SANITIZE:
            # The audit re-checks the same invariant through flashsan.
            ftl.assert_clean()

    def test_valid_page_conservation(self):
        """After any workload, total valid data pages == live logical pages."""
        ftl = self.new_ftl()
        rng = random.Random(9)
        live = set()
        for i in range(self.LOGICAL_PAGES * 4):
            lpn = rng.randrange(self.LOGICAL_PAGES)
            ftl.write(lpn, i)
            live.add(lpn)
        valid_data = self.count_valid_data_pages(ftl)
        assert valid_data == len(live)

    @staticmethod
    def count_valid_data_pages(ftl):
        """Count VALID pages holding host data (not mapping/checkpoint)."""
        from repro.flash import PageKind, PageState

        flash = ftl.flash
        return sum(
            1
            for state, kind in zip(flash.page_states, flash.oob_kind)
            if state == PageState.VALID and kind in (0, PageKind.DATA)
        )
