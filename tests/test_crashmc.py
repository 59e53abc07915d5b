"""Crash-consistency model checker tests (the fast CI subset).

The exhaustive acceptance matrix - every boundary of a >= 2000-op workload
for every recovery-capable scheme - lives behind ``repro crashcheck
--full``; here every piece of the checker is exercised on short workloads:
the shadow model's durability rules, exhaustive exploration of small
workloads, the serial == parallel verdict guarantee, reproducer strings,
and the ``--mutate`` oracle self-test.
"""

import pytest

from repro.checks import ShadowModel
from repro.checks.crashmc import (
    CrashCase,
    CrashReport,
    DeviceParams,
    DurabilityViolation,
    check_case,
    count_boundaries,
    decode_ops,
    encode_ops,
    explore,
    mixed_ops,
    oracle,
)
from repro.perf.sweep import SweepWorkerError

pytestmark = pytest.mark.crash


# ----------------------------------------------------------------------
# Workload generation and encoding
# ----------------------------------------------------------------------
class TestWorkload:
    def test_deterministic(self):
        assert mixed_ops(200, 96, seed=3) == mixed_ops(200, 96, seed=3)
        assert mixed_ops(200, 96, seed=3) != mixed_ops(200, 96, seed=4)

    def test_kinds_and_bounds(self):
        ops = mixed_ops(500, 96, seed=1)
        assert len(ops) == 500
        kinds = {kind for kind, _ in ops}
        assert kinds <= {"w", "r", "d"}
        assert "w" in kinds  # writes dominate
        assert all(0 <= lpn < 96 for _, lpn in ops)

    def test_encode_decode_round_trip(self):
        ops = mixed_ops(50, 96, seed=9)
        assert decode_ops(encode_ops(ops)) == ops
        assert decode_ops("") == ()

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            decode_ops("w5.x3")
        with pytest.raises(ValueError, match="malformed"):
            decode_ops("w")


# ----------------------------------------------------------------------
# Shadow model durability rules
# ----------------------------------------------------------------------
class TestShadowModel:
    def test_acknowledged_write_must_read_back_exactly(self):
        m = ShadowModel(8)
        m.begin("w", 3, "v1")
        m.commit()
        assert m.allowed_after_crash(3) == {"v1"}
        violations = oracle(m, lambda lpn: "v1" if lpn == 3 else None)
        assert violations == []

    def test_lost_write_classified(self):
        m = ShadowModel(8)
        m.begin("w", 3, "v1")
        m.commit()
        (v,) = oracle(m, lambda lpn: None)
        assert v.kind == "lost_write" and v.lpn == 3

    def test_inflight_write_allows_old_or_new_never_garbage(self):
        m = ShadowModel(8)
        m.begin("w", 2, "old")
        m.commit()
        m.begin("w", 2, "new")  # never committed: the crash hit here
        assert m.allowed_after_crash(2) == {"old", "new"}
        assert oracle(m, lambda lpn: "old" if lpn == 2 else None) == []
        assert oracle(m, lambda lpn: "new" if lpn == 2 else None) == []
        (v,) = oracle(m, lambda lpn: "garbage" if lpn == 2 else None)
        assert v.kind == "torn_value"

    def test_phantom_classified(self):
        m = ShadowModel(8)
        (v,) = oracle(m, lambda lpn: "ghost" if lpn == 5 else None)
        assert v.kind == "phantom" and v.lpn == 5

    def test_discard_relaxes_to_old_or_nothing(self):
        m = ShadowModel(8)
        m.begin("w", 1, "kept")
        m.commit()
        m.begin("d", 1, None)
        m.commit()
        assert m.allowed_after_crash(1) == {"kept", None}
        assert oracle(m, lambda lpn: "kept" if lpn == 1 else None) == []
        assert oracle(m, lambda lpn: None) == []
        (v,) = oracle(m, lambda lpn: "other" if lpn == 1 else None)
        assert v.kind == "torn_value"

    def test_write_after_discard_retightens(self):
        m = ShadowModel(8)
        m.begin("w", 1, "a")
        m.commit()
        m.begin("d", 1, None)
        m.commit()
        m.begin("w", 1, "b")
        m.commit()
        assert m.allowed_after_crash(1) == {"b"}

    def test_powered_read_your_writes(self):
        m = ShadowModel(8)
        m.begin("w", 4, "x")
        m.commit()
        assert m.check_read(4, "x") is None
        assert m.check_read(4, "y") is not None
        assert m.check_read(5, None) is None
        assert m.check_read(5, "stray") is not None


# ----------------------------------------------------------------------
# Exhaustive exploration
# ----------------------------------------------------------------------
class TestExplore:
    @pytest.mark.parametrize("scheme", ["LazyFTL", "ideal"])
    def test_every_boundary_survives(self, scheme):
        report = explore(scheme, num_ops=80, seed=5)
        assert report.boundaries > 20  # GC/conversion engaged
        # every boundary plus the clean power-off after the last op
        assert len(report.results) == report.boundaries + 1
        assert report.ok, [str(v) for r in report.failures
                           for v in r.violations]
        tripped = [r for r in report.results if r.tripped]
        assert len(tripped) == report.boundaries
        assert all("power cut at op index" in r.trip for r in tripped)

    def test_serial_and_parallel_verdicts_identical(self):
        serial = explore("LazyFTL", num_ops=60, seed=11, jobs=1)
        parallel = explore("LazyFTL", num_ops=60, seed=11, jobs=3)
        assert serial.signature() == parallel.signature()

    def test_boundary_count_matches_flash_ops(self):
        case = CrashCase(scheme="ideal", crash_index=0, seed=2, num_ops=60)
        n = count_boundaries(case)
        assert n > 0
        # Crashing past the last boundary is the clean power-off case.
        result = check_case(
            CrashCase(scheme="ideal", crash_index=n, seed=2, num_ops=60)
        )
        assert not result.tripped and result.ok

    def test_crash_point_result_reports_trip_site(self):
        case = CrashCase(scheme="LazyFTL", crash_index=10, seed=5,
                         num_ops=80)
        result = check_case(case)
        assert result.tripped
        assert "op index 10" in result.trip
        assert result.acked_ops < 80

    def test_a_powered_misread_is_a_replay_finding(self, monkeypatch):
        """The replay runs through ``SanitizedFTL`` in record mode: a read
        its model does not allow becomes a ``replay`` violation, and the
        case still crashes, recovers and is judged."""
        from repro.ftl import PageFTL

        honest = PageFTL.read

        def misread(self, lpn):
            result = honest(self, lpn)
            return result._replace(data="garbage") if lpn == 3 else result

        monkeypatch.setattr(PageFTL, "read", misread)
        result = check_case(CrashCase(scheme="ideal", crash_index=10 ** 6,
                                      ops=(("w", 3), ("r", 3), ("r", 4))))
        assert not result.tripped
        assert [(v.kind, v.lpn) for v in result.violations][0] \
            == ("replay", 3)

    def test_worker_errors_stay_loud(self):
        with pytest.raises((ValueError, SweepWorkerError)):
            explore("BAST", num_ops=10, seed=0)

    @pytest.mark.parametrize("scheme", ["LazyFTL", "ideal"])
    def test_two_channel_every_boundary_survives(self, scheme):
        """Crash anywhere on a striped 2-channel device; recovery must
        rebuild the striped frontiers and preserve durability.

        The crash cuts land at per-channel program/erase boundaries (the
        striped frontiers interleave blocks across units), so mid-stripe
        states - one channel's frontier a page ahead of the other's -
        are exactly what the recovery scan replays through.
        """
        report = explore(scheme, num_ops=80, seed=5,
                         device=DeviceParams(channels=2))
        assert report.boundaries > 20
        assert len(report.results) == report.boundaries + 1
        assert report.ok, [str(v) for r in report.failures
                           for v in r.violations]

    def test_two_channel_mutation_detected(self):
        device = DeviceParams(channels=2)
        probe = CrashCase(scheme="LazyFTL", crash_index=0, seed=0,
                          num_ops=80, mutate=True, device=device)
        n = count_boundaries(probe)
        result = check_case(CrashCase(scheme="LazyFTL",
                                      crash_index=max(0, n - 1),
                                      seed=0, num_ops=80, mutate=True,
                                      device=device))
        assert result.mutated and not result.ok


# ----------------------------------------------------------------------
# Reproducer strings
# ----------------------------------------------------------------------
class TestReproducer:
    def test_round_trip_generative(self):
        case = CrashCase(scheme="LazyFTL", crash_index=57, seed=7,
                         num_ops=2000)
        assert CrashCase.from_reproducer(case.reproducer()) == case

    def test_round_trip_explicit_ops_and_mutate(self):
        case = CrashCase(scheme="ideal", crash_index=2,
                         ops=(("w", 5), ("r", 5), ("d", 5)), mutate=True)
        text = case.reproducer()
        assert "oplist=w5.r5.d5" in text
        assert CrashCase.from_reproducer(text) == case

    def test_reproducer_string_is_stable(self):
        case = CrashCase(scheme="LazyFTL", crash_index=3, seed=1,
                         num_ops=40)
        assert case.reproducer() == case.reproducer()
        assert case.reproducer() == \
            "crashmc:v1:scheme=LazyFTL:seed=1:ops=40:crash=3:ckpt=48"

    def test_bad_strings_rejected(self):
        with pytest.raises(ValueError, match="not a crashmc"):
            CrashCase.from_reproducer("nonsense")
        with pytest.raises(ValueError, match="missing field"):
            CrashCase.from_reproducer("crashmc:v1:seed=1:crash=0")
        with pytest.raises(ValueError, match="malformed"):
            CrashCase.from_reproducer("crashmc:v1:scheme=ideal:junk:crash=0")

    def test_device_key_round_trips_geometry(self):
        serial = DeviceParams()
        assert serial.key() == "40x8x64/96"  # historical form unchanged
        assert DeviceParams.parse(serial.key()) == serial
        striped = DeviceParams(channels=2)
        assert striped.key() == "40x8x64/96@2"
        assert DeviceParams.parse(striped.key()) == striped

    def test_round_trip_with_geometry(self):
        case = CrashCase(scheme="LazyFTL", crash_index=9, seed=3,
                         num_ops=50, device=DeviceParams(channels=2))
        text = case.reproducer()
        assert "dev=40x8x64/96@2" in text
        assert CrashCase.from_reproducer(text) == case


# ----------------------------------------------------------------------
# Oracle self-test (--mutate)
# ----------------------------------------------------------------------
class TestMutateSelfTest:
    @pytest.mark.parametrize("scheme", ["LazyFTL", "ideal"])
    def test_deliberate_corruption_is_detected(self, scheme):
        probe = CrashCase(scheme=scheme, crash_index=0, seed=7,
                          num_ops=120, mutate=True)
        boundaries = count_boundaries(probe)
        case = CrashCase(scheme=scheme, crash_index=boundaries - 1,
                         seed=7, num_ops=120, mutate=True)
        result = check_case(case)
        assert result.mutated, "no eligible mapping entry to corrupt"
        assert not result.ok, (
            "oracle failed to flag a deliberately corrupted mapping entry"
        )
        kinds = {v.kind for v in result.violations}
        assert kinds & {"torn_value", "audit", "lost_write", "phantom"}

    def test_unmutated_twin_passes(self):
        """The same crash point without mutation is clean - the detection
        above is caused by the corruption, not by the crash."""
        probe = CrashCase(scheme="LazyFTL", crash_index=0, seed=7,
                          num_ops=120)
        boundaries = count_boundaries(probe)
        result = check_case(
            CrashCase(scheme="LazyFTL", crash_index=boundaries - 1,
                      seed=7, num_ops=120)
        )
        assert result.ok


# ----------------------------------------------------------------------
# Report aggregation
# ----------------------------------------------------------------------
class TestCrashReport:
    def test_signature_reflects_verdicts(self):
        from repro.checks.crashmc import CrashPointResult

        clean = CrashPointResult(crash_index=0, tripped=True, trip="t",
                                 acked_ops=1, violations=())
        dirty = CrashPointResult(
            crash_index=0, tripped=True, trip="t", acked_ops=1,
            violations=(DurabilityViolation("lost_write", 3, "gone"),),
        )
        a = CrashReport("LazyFTL", 0, 10, 1, [clean])
        b = CrashReport("LazyFTL", 0, 10, 1, [dirty])
        assert a.ok and not b.ok
        assert a.signature() != b.signature()
