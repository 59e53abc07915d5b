"""flashsan unit tests: every violation class seeded deliberately.

Each test drives the sanitizer into exactly one kind of contract breach
and asserts on the *structured* report (kind, addresses, history), the
property that separates flashsan from a pile of asserts.  A buggy FTL
fixture at the end shows the end-to-end behaviour the sanitizer exists
for: an FTL that skips an erase is caught at the faulting operation with
the op-history tail attached.
"""

import ast
import inspect
import random
import warnings

import pytest

from repro.checks import (
    SanitizedFTL,
    SanitizedNandFlash,
    SanitizerViolation,
    ViolationKind,
    audit_ftl,
)
from repro.core import LazyConfig, LazyFTL
from repro.flash import (
    BadBlockError,
    EraseError,
    FlashError,
    FlashGeometry,
    NandFlash,
    OOBData,
    PageKind,
    PageState,
    PowerLossError,
    ProgramError,
    RedundantInvalidateWarning,
    UNIT_TIMING,
)
from repro.ftl import DftlFTL, PageFTL

from .test_seeded_hazards import MapsUnprogrammedPage


GEOMETRY = FlashGeometry(num_blocks=8, pages_per_block=4, page_size=2048)


def make_flash(**kwargs):
    return SanitizedNandFlash(GEOMETRY, timing=UNIT_TIMING, **kwargs)


def catch(flash, fn):
    """Run ``fn``, return the Violation the sanitizer raised."""
    with pytest.raises(SanitizerViolation) as exc_info:
        fn()
    return exc_info.value.violation


class TestNandLegality:
    def test_program_without_erase(self):
        flash = make_flash()
        flash.program_page(0, "a", OOBData(lpn=3, seq=0))
        flash.invalidate_page(0)
        v = catch(flash, lambda: flash.program_page(0, "b"))
        assert v.kind is ViolationKind.PROGRAM_WITHOUT_ERASE
        assert v.pbn == 0
        assert v.ppn == 0
        assert "lpn=3" in v.message  # names the current owner

    def test_program_over_valid_page(self):
        flash = make_flash()
        flash.program_page(0, "a")
        v = catch(flash, lambda: flash.program_page(0, "b",
                                                    OOBData(lpn=7, seq=1)))
        assert v.kind is ViolationKind.PROGRAM_WITHOUT_ERASE
        assert v.lpn == 7  # the incoming write's lpn

    def test_program_out_of_order(self):
        flash = make_flash()
        v = catch(flash, lambda: flash.program_page(2, "x"))
        assert v.kind is ViolationKind.PROGRAM_OUT_OF_ORDER
        assert "write pointer at 0" in v.message

    def test_out_of_order_allowed_when_not_enforced(self):
        flash = make_flash()
        flash.enforce_sequential = False
        flash.program_page(2, "x")  # legal on this device

    def test_read_unwritten(self):
        flash = make_flash()
        v = catch(flash, lambda: flash.read_page(5))
        assert v.kind is ViolationKind.READ_UNWRITTEN
        assert v.pbn == 1 and v.ppn == 5

    def test_probe_of_unwritten_is_sanctioned(self):
        flash = make_flash()
        oob, _ = flash.probe_page(5)  # recovery-style scan: no violation
        assert oob is None

    def test_bad_block_program_and_erase(self):
        flash = make_flash()
        flash.mark_bad(1)  # ftlint: disable=FTL003 - seeding the fault
        v = catch(flash, lambda: flash.program_page(GEOMETRY.ppn_of(1, 0), "x"))
        assert v.kind is ViolationKind.BAD_BLOCK_OP
        v = catch(flash, lambda: flash.erase_block(1))
        assert v.kind is ViolationKind.BAD_BLOCK_OP

    def test_erase_with_valid_pages(self):
        flash = make_flash()
        flash.program_page(0, "a", OOBData(lpn=11, seq=0))
        v = catch(flash, lambda: flash.erase_block(0))
        assert v.kind is ViolationKind.ERASE_WITH_VALID
        assert "11" in v.message  # live lpn listed

    def test_double_invalidate(self):
        flash = make_flash()
        flash.program_page(0, "a")
        flash.invalidate_page(0)
        v = catch(flash, lambda: flash.invalidate_page(0))
        assert v.kind is ViolationKind.DOUBLE_INVALIDATE

    def test_invalidate_unwritten(self):
        flash = make_flash()
        v = catch(flash, lambda: flash.invalidate_page(0))
        assert v.kind is ViolationKind.INVALIDATE_UNWRITTEN


class TestOneStatementOfEachRule:
    """The chip states each NAND rule once and its refusal names the rule;
    the sanitizer reports that name instead of checking the rule again."""

    @staticmethod
    def worn_live_block(flash):
        """Block 0 at the end of its endurance, holding live page 0."""
        flash.program_page(0, "a", OOBData(lpn=3, seq=0))
        flash.invalidate_page(0)
        flash.erase_block(0)
        flash.program_page(0, "b", OOBData(lpn=7, seq=1))

    def test_worn_out_erase_of_a_live_block_is_refused(self):
        chip = NandFlash(GEOMETRY, timing=UNIT_TIMING, endurance=1)
        self.worn_live_block(chip)
        with pytest.raises(EraseError) as exc_info:
            chip.erase_block(0)
        assert exc_info.value.rule == "erase-with-valid-pages"
        assert "[7]" in str(exc_info.value)  # the live lpns
        assert chip.page_state(0) is PageState.VALID
        assert chip.valid_count[0] == 1 and not chip.is_bad[0]
        assert chip.stats.block_erases == 2  # still charged

    def test_worn_out_erase_of_a_live_block_on_flashsan(self):
        flash = make_flash(endurance=1)
        self.worn_live_block(flash)
        v = catch(flash, lambda: flash.erase_block(0))
        assert (v.kind, v.pbn) == (ViolationKind.ERASE_WITH_VALID, 0)
        assert flash.page_state(0) is PageState.VALID

    @staticmethod
    def refusals():
        """(rule, the refused op, what its message names) for every rule
        the chip enforces."""
        def out_of_order(chip):
            chip.program_page(2, "x")

        def without_erase(chip):
            chip.program_page(0, "a", OOBData(lpn=3, seq=0))
            chip.program_page(0, "b")

        def unwritten_read(chip):
            chip.read_page(5)

        def bad_block(chip):
            chip.mark_bad(1)  # ftlint: disable=FTL003 - seeding the fault
            chip.erase_block(1)

        def live_erase(chip):
            chip.program_page(0, "a", OOBData(lpn=11, seq=0))
            chip.erase_block(0)

        def unwritten_invalidate(chip):
            chip.invalidate_page(0)

        return [
            ("program-out-of-order", out_of_order, ["write pointer at 0"]),
            ("program-without-erase", without_erase, ["lpn=3"]),
            ("read-unwritten-page", unwritten_read, ["block 1, offset 1"]),
            ("bad-block-op", bad_block, ["block 1"]),
            ("erase-with-valid-pages", live_erase, ["[11]"]),
            ("invalidate-unwritten-page", unwritten_invalidate,
             ["block 0, offset 0"]),
        ]

    def test_every_refusal_names_its_rule(self):
        rules = []
        for rule, refused, words in self.refusals():
            chip = NandFlash(GEOMETRY, timing=UNIT_TIMING)
            with pytest.raises(FlashError) as exc_info:
                refused(chip)
            assert exc_info.value.rule == rule
            assert all(word in str(exc_info.value) for word in words), rule
            flash = make_flash()
            v = catch(flash, lambda: refused(flash))
            assert v.kind is ViolationKind(rule)
            assert v.message == str(exc_info.value)
            rules.append(rule)
        assert len(set(rules)) == 6

    def test_power_loss_and_wear_out_name_no_rule(self):
        chip = NandFlash(GEOMETRY, timing=UNIT_TIMING, endurance=1)
        chip.erase_block(0)
        with pytest.raises(BadBlockError) as exc_info:
            chip.erase_block(0)
        assert exc_info.value.rule is None
        chip.fault.arm_at_op_index(0)
        with pytest.raises(PowerLossError) as exc_info:
            chip.program_page(GEOMETRY.ppn_of(1, 0), "x")
        assert exc_info.value.rule is None

    def test_the_sanitizer_states_no_rule_again(self):
        """Of the chip's state the sanitizer reads only the page state,
        and compares it only as ``== INVALID`` in ``invalidate_page``:
        the redundant invalidate the chip tolerates."""
        tree = ast.parse(inspect.getsource(SanitizedNandFlash))
        [cls] = tree.body
        compares = []
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Attribute):
                    assert node.attr not in {
                        "is_bad", "valid_count", "write_ptr",
                        "enforce_sequential"}, (method.name, node.attr)
                if isinstance(node, ast.Compare) and "page_state" \
                        in ast.unparse(node):
                    compares.append((method.name, ast.unparse(node)))
        assert compares == [
            ("invalidate_page", "self.page_states[ppn] == INVALID")]


class TestRunOpsAreAuditedPageByPage:
    """The sanitizer takes no runs: a run op is its audited scalar op per
    page - same findings at the same page, one history record each."""

    def test_it_refuses_runs(self):
        assert make_flash().takes_runs() is False
        assert NandFlash(GEOMETRY, timing=UNIT_TIMING).takes_runs() is True

    def test_every_page_of_a_run_is_recorded(self):
        flash = make_flash(history=16)
        flash.program_run(0, ["a", "b", "c"], [10, 11, 12], 0, PageKind.DATA,
                          False)
        # A copy of page 2 to page 4: its read, then its program.
        flash.program_run(4, ["c"], [12], 3, PageKind.DATA, False, [2])
        flash.invalidate_run([1, 2])
        flash.program_page(3, "d")  # anything: fetch the history
        v = catch(flash, lambda: flash.read_page(7))
        assert [(op.op, op.offset, op.lpn) for op in v.history] == [
            ("program", 0, 10), ("program", 1, 11), ("program", 2, 12),
            ("read", 2, 12), ("program", 0, 12),
            ("invalidate", 1, 11), ("invalidate", 2, 12),
            ("program", 3, None),
        ]

    def test_a_run_fails_at_the_page_its_scalar_op_would(self):
        flash = make_flash()
        flash.program_run(0, ["a", "b"], [0, 1], 0, PageKind.DATA, False)
        v = catch(flash, lambda: flash.program_run(
            4, ["x", "y"], [1, 2], 2, PageKind.DATA, False, [1, 2]))
        assert (v.kind, v.ppn) == (ViolationKind.READ_UNWRITTEN, 2)
        # Page 1 was read and copied to page 4; page 5 was never programmed.
        assert flash.stats.page_reads == 1 and flash.write_ptr[1] == 1
        flash.invalidate_page(0)
        v = catch(flash, lambda: flash.invalidate_run([1, 0]))
        assert (v.kind, v.ppn) == (ViolationKind.DOUBLE_INVALIDATE, 0)
        assert flash.valid_count[0] == 0  # page 1 was retired first
        v = catch(flash, lambda: flash.program_run(
            1, ["x"], [1], 4, PageKind.DATA, False))
        assert v.kind is ViolationKind.PROGRAM_WITHOUT_ERASE


class TestReportStructure:
    def test_history_tail_attached(self):
        flash = make_flash(history=4)
        for ppn, value in enumerate("abcd"):
            flash.program_page(ppn, value, OOBData(lpn=ppn, seq=ppn))
        v = catch(flash, lambda: flash.read_page(7))
        assert len(v.history) == 4  # ring capacity
        assert [op.op for op in v.history] == ["program"] * 4
        assert v.history[-1].lpn == 3
        rendered = v.render()
        assert "read-unwritten-page" in rendered
        assert "last 4 flash ops" in rendered

    def test_record_mode_collects_without_raising(self):
        flash = make_flash(on_violation="record")
        with pytest.raises(ProgramError):
            # The sanitizer records; the chip still rejects the op.
            flash.program_page(2, "x")
        assert [v.kind for v in flash.violations] == [
            ViolationKind.PROGRAM_OUT_OF_ORDER
        ]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_flash(on_violation="explode")
        with pytest.raises(ValueError):
            SanitizedFTL(PageFTL(NandFlash(GEOMETRY), logical_pages=16),
                         on_violation="explode")

    def test_sanitizer_violation_is_not_a_flash_error(self):
        from repro.flash import FlashError

        flash = make_flash()
        try:
            flash.read_page(0)
        except FlashError:  # pragma: no cover - the bug this guards against
            pytest.fail("SanitizerViolation must not be catchable as "
                        "FlashError")
        except SanitizerViolation:
            pass


class TestRedundantInvalidate:
    """Satellite: the plain chip makes double-invalidates explicit too."""

    def test_plain_chip_warns_and_counts(self):
        chip = NandFlash(GEOMETRY, timing=UNIT_TIMING)
        chip.program_page(0, "a")
        chip.invalidate_page(0)
        with pytest.warns(RedundantInvalidateWarning):
            chip.invalidate_page(0)
        assert chip.stats.redundant_invalidates == 1

    def test_invalidate_of_unwritten_raises_on_plain_chip(self):
        chip = NandFlash(GEOMETRY, timing=UNIT_TIMING)
        with pytest.raises(ProgramError):
            chip.invalidate_page(0)

    def test_single_invalidate_stays_silent(self):
        chip = NandFlash(GEOMETRY, timing=UNIT_TIMING)
        chip.program_page(0, "a")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chip.invalidate_page(0)
        assert chip.stats.redundant_invalidates == 0


class TestShadowMap:
    def test_read_your_writes_verified(self):
        flash = make_flash()
        ftl = SanitizedFTL(PageFTL(flash, logical_pages=16))
        ftl.write(3, "payload")
        assert ftl.read(3).data == "payload"

    def test_shadow_mismatch_detected(self):
        class LyingFTL(PageFTL):
            """Returns stale data for every read: a broken mapping."""

            def read(self, lpn):
                real = super().read(lpn)
                return real._replace(data="stale!")

        flash = make_flash()
        ftl = SanitizedFTL(LyingFTL(flash, logical_pages=16))
        ftl.write(3, "payload")
        v = catch(ftl, lambda: ftl.read(3))
        assert v.kind is ViolationKind.SHADOW_MISMATCH
        assert v.lpn == 3
        assert "stale!" in v.message

    def test_run_ops_go_through_the_shadow_map(self):
        """``__getattr__`` would hand the driver the wrapped scheme's run
        ops and every multi-page request would skip the model."""
        class LyingFTL(PageFTL):
            def read_run(self, lpn, n, begin_page=None, end_page=None):
                real = super().read_run(lpn, n, begin_page, end_page)
                return real._replace(data=[*real.data[:-1], "stale!"])

        flash = make_flash()
        ftl = SanitizedFTL(LyingFTL(flash, logical_pages=16))
        ftl.write_run(2, ["a", "b", "c"])
        assert ftl.read(4).data == "c"  # the run reached the model
        v = catch(ftl, lambda: ftl.read_run(2, 3))
        assert v.kind is ViolationKind.SHADOW_MISMATCH
        assert v.lpn == 4
        # A run that raises half way leaves the model at what it wrote.
        with pytest.raises(ValueError):
            ftl.write_run(14, ["x", "y", "z"])
        assert ftl.read(15).data == "y"

    def test_trim_clears_shadow(self):
        """A trim clears the acknowledged value: the page may read back
        its old value or nothing."""
        flash = make_flash()
        ftl = SanitizedFTL(PageFTL(flash, logical_pages=16))
        ftl.write(3, "payload")
        ftl.trim(3)
        ftl.read(3)
        assert ftl.model.check_read(3, "payload") is None
        assert ftl.model.check_read(3, None) is None

    def test_post_trim_third_value_flagged(self):
        class LyingFTL(PageFTL):
            def read(self, lpn):
                real = super().read(lpn)
                return real._replace(data="other")

        ftl = SanitizedFTL(LyingFTL(make_flash(), logical_pages=16))
        ftl.write(3, "payload")
        ftl.trim(3)
        v = catch(ftl, lambda: ftl.read(3))
        assert v.kind is ViolationKind.SHADOW_MISMATCH
        assert v.lpn == 3
        assert "'other'" in v.message and "'payload'" in v.message

    def test_phantom_read_flagged(self):
        """A never-written page must read back empty."""
        class LyingFTL(PageFTL):
            def read(self, lpn):
                real = super().read(lpn)
                return real._replace(data="ghost")

        ftl = SanitizedFTL(LyingFTL(make_flash(), logical_pages=16))
        v = catch(ftl, lambda: ftl.read(7))
        assert v.kind is ViolationKind.SHADOW_MISMATCH
        assert v.lpn == 7
        assert "never-written" in v.message

    def test_no_payload_writes_a_version_token(self):
        """The simulator sends no payload; the wrapper writes a fresh
        ``(lpn, version)`` token so its reads are checked by content."""
        ftl = SanitizedFTL(PageFTL(make_flash(), logical_pages=16))
        ftl.write(3)
        ftl.write_run(5, [None, "given"])
        ftl.write(3)
        assert [ftl.read(lpn).data for lpn in (3, 5, 6)] \
            == [(3, 2), (5, 1), "given"]

    def test_sweep_reads_every_page(self):
        """A page no request reads again is still held to its last
        write by the sweep."""
        class ForgetsLpn9(PageFTL):
            def read(self, lpn):
                real = super().read(lpn)
                return real._replace(data=None) if lpn == 9 else real

        ftl = SanitizedFTL(ForgetsLpn9(make_flash(), logical_pages=16),
                           on_violation="record")
        ftl.write(9, "kept")
        ftl.sweep()
        [v] = ftl.violations
        assert v.kind is ViolationKind.SHADOW_MISMATCH and v.lpn == 9

    def test_delegation_preserves_surface(self):
        flash = make_flash()
        ftl = SanitizedFTL(PageFTL(flash, logical_pages=16))
        assert ftl.flash is flash
        assert ftl.logical_pages == 16
        assert ftl.ram_bytes() > 0
        assert ftl.wrapped.name == "ideal"


class TestAuditors:
    """Seed each mapping-invariant breach and audit it out."""

    def small_page_ftl(self):
        flash = NandFlash(GEOMETRY, timing=UNIT_TIMING)
        ftl = PageFTL(flash, logical_pages=16)
        return flash, ftl

    def test_clean_audit(self):
        flash, ftl = self.small_page_ftl()
        for lpn in range(8):
            ftl.write(lpn, lpn)
        report = audit_ftl(ftl)
        assert report.clean
        assert report.checks_run > 0
        assert "audit clean" in report.render()

    def test_multi_owner(self):
        flash, ftl = self.small_page_ftl()
        ftl.write(1, "real")
        # A second VALID copy of lpn 1 appears behind the FTL's back.
        spare = flash.geometry.ppn_of(7, 0)
        flash.program_page(spare, "ghost", OOBData(lpn=1, seq=99))
        report = audit_ftl(ftl)
        kinds = {v.kind for v in report.violations}
        assert ViolationKind.MULTI_OWNER in kinds
        [v] = [v for v in report.violations
               if v.kind is ViolationKind.MULTI_OWNER]
        assert v.lpn == 1

    def test_counter_drift(self):
        flash, ftl = self.small_page_ftl()
        ftl.write(0, "x")
        pbn = next(b for b, valid in enumerate(flash.valid_count) if valid)
        flash.valid_count[pbn] += 1  # ftlint: disable=FTL003 - seeding the fault
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.COUNTER_DRIFT
                   and v.pbn == pbn
                   for v in report.violations)

    def test_oob_out_of_range(self):
        flash, ftl = self.small_page_ftl()
        spare = flash.geometry.ppn_of(7, 0)
        flash.program_page(spare, "junk", OOBData(lpn=9999, seq=1))
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.OOB_MISMATCH
                   for v in report.violations)

    def test_ideal_map_is_checked_against_flash(self):
        # The seeded scheme maps lpn 8 to the frontier page and never
        # programs it; the next write fills that page for lpn 2.
        flash = NandFlash(GEOMETRY, timing=UNIT_TIMING)
        ftl = MapsUnprogrammedPage(flash, logical_pages=16)
        ftl.write(1, "one")
        ftl.write(8, "lost")
        [v] = audit_ftl(ftl).violations
        assert v.kind is ViolationKind.DANGLING_MAPPING
        assert (v.lpn, v.ppn) == (8, ftl._map[8])
        ftl.write(2, "two")
        [v] = audit_ftl(ftl).violations
        assert v.kind is ViolationKind.OOB_MISMATCH
        assert (v.lpn, v.ppn) == (8, ftl._map[2])


class TestDftlAudit:
    def make_dftl(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=24, pages_per_block=8, page_size=64),
            timing=UNIT_TIMING,
        )
        ftl = DftlFTL(flash, logical_pages=96, cmt_entries=8)
        rng = random.Random(5)
        for i in range(300):
            ftl.write(rng.randrange(96), i)
        return flash, ftl

    def test_clean_after_pressure(self):
        _, ftl = self.make_dftl()
        assert audit_ftl(ftl).clean

    def test_dangling_cmt_entry(self):
        flash, ftl = self.make_dftl()
        lpn, entry = next(iter(ftl._cmt.items()))
        free_ppn = next(
            flash.geometry.ppn_of(pbn, write_ptr)
            for pbn, write_ptr in enumerate(flash.write_ptr)
            if write_ptr < flash.geometry.pages_per_block
        )
        entry.ppn = free_ppn  # points at a FREE page now
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.DANGLING_MAPPING
                   and v.lpn == lpn for v in report.violations)

    def test_clean_entry_translation_page_disagreement(self):
        flash, ftl = self.make_dftl()
        clean = [(lpn, e) for lpn, e in ftl._cmt.items()
                 if not e.dirty and e.ppn is not None]
        if not clean:  # evict everything clean: force one
            pytest.skip("no clean CMT entry under this workload")
        lpn, entry = clean[0]
        other = next(l for l, e in ftl._cmt.items() if l != lpn
                     and e.ppn is not None)
        entry.ppn = ftl._cmt[other].ppn  # valid page, wrong entry
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.CMT_INCONSISTENT
                   for v in report.violations)

    def test_dirty_index_missing_an_entry(self):
        """Mutation: a write that forgot to index what it dirtied."""
        _, ftl = self.make_dftl()
        lpn = next(l for l, e in ftl._cmt.items() if e.dirty)
        ftl._dirty.discard(lpn)
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.CMT_INCONSISTENT
                   and v.lpn == lpn for v in report.violations)

    def test_dirty_index_listing_a_clean_entry(self):
        _, ftl = self.make_dftl()
        lpn, entry = next((l, e) for l, e in ftl._cmt.items() if e.dirty)
        entry.dirty = False                   # cleaned behind the index
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.CMT_INCONSISTENT
                   and v.lpn == lpn and "dirty index" in v.message
                   for v in report.violations)


class TestVictimPoolAudit:
    """Every scheme with a GarbageCollector: a candidate's bucket is its
    valid count, or the device still lists it as invalidated."""

    def make(self, scheme):
        if scheme == "ideal":
            flash = NandFlash(
                FlashGeometry(num_blocks=24, pages_per_block=8,
                              page_size=64), timing=UNIT_TIMING)
            ftl = PageFTL(flash, logical_pages=96)
            rng = random.Random(8)
            for i in range(400):
                ftl.write(rng.randrange(96), i)
            return flash, ftl
        if scheme == "DFTL":
            return TestDftlAudit().make_dftl()
        return TestLazyFTLAudit().make_lazy()

    @pytest.mark.parametrize("scheme", ["ideal", "DFTL", "LazyFTL"])
    def test_pending_invalidations_are_not_drift_and_not_drained(
            self, scheme):
        flash, ftl = self.make(scheme)
        pending = set(flash.invalidated)
        assert pending                        # stale buckets exist now
        assert audit_ftl(ftl).clean
        assert flash.invalidated == pending   # the audit only looked
        ftl._gc.select()
        assert not flash.invalidated and audit_ftl(ftl).clean

    @pytest.mark.parametrize("scheme", ["ideal", "DFTL", "LazyFTL"])
    def test_stale_bucket(self, scheme):
        """Mutation: an invalidation the device did not note."""
        flash, ftl = self.make(scheme)
        pbn = next(b for b in ftl._gc.blocks if flash.valid_count[b])
        ftl._gc.select()                      # buckets are current now
        flash.invalidate_page(flash.valid_ppns(pbn)[0])
        flash.invalidated.discard(pbn)        # ... but nobody was told
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.COUNTER_DRIFT and v.pbn == pbn
                   and "bucketed" in v.message for v in report.violations)

    def test_member_table_and_buckets_disagree(self):
        flash, ftl = self.make("ideal")
        pool = ftl._gc.blocks
        pbn = next(iter(pool))
        pool._buckets[pool._bucket_of[pbn]].discard(pbn)
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.COUNTER_DRIFT
                   and "member table" in v.message
                   for v in report.violations)

    @pytest.mark.parametrize("scheme", ["ideal", "DFTL", "LazyFTL"])
    def test_corrupt_age_index(self, scheme):
        """Mutation: a seal that is not the last page's seq, and a bucket
        whose cached oldest member is not its oldest."""
        flash, ftl = self.make(scheme)
        pool = ftl._gc.blocks
        pool.pick_cost_benefit(0)             # every bucket's oldest cached
        valid, young = max(
            (v, max(bucket, key=pool._age_rank.__getitem__))
            for v, bucket in enumerate(pool._buckets) if len(bucket) > 1)
        pool._oldest[valid] = young
        pool._age_rank[young] += flash.geometry.num_blocks  # a seq later
        report = audit_ftl(ftl)
        for text in ("cached as the oldest", "not sealed at seq"):
            assert any(v.kind is ViolationKind.COUNTER_DRIFT
                       and v.pbn == young and text in v.message
                       for v in report.violations), text


class TestLazyFTLAudit:
    def make_lazy(self):
        flash = NandFlash(
            FlashGeometry(num_blocks=40, pages_per_block=8, page_size=64),
            timing=UNIT_TIMING,
        )
        config = LazyConfig(uba_blocks=4, cba_blocks=2, gc_free_threshold=3)
        ftl = LazyFTL(flash, logical_pages=96, config=config)
        rng = random.Random(6)
        for i in range(400):
            ftl.write(rng.randrange(96), i)
        return flash, ftl

    def test_clean_after_pressure(self):
        _, ftl = self.make_lazy()
        assert audit_ftl(ftl).clean

    def test_merge_breaks_zero_merge_invariant(self):
        _, ftl = self.make_lazy()
        ftl.stats.merges_full += 1
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.LAZY_MERGE
                   for v in report.violations)

    def test_leaked_stale_copy_detected(self):
        _, ftl = self.make_lazy()
        # Pick a pending UMT entry and drop it: its superseded GMT copy
        # (still VALID, by deferred invalidation) is now a leak.
        lpn = next(lpn for lpn, _ in ftl.umt.items())
        ftl.umt.discard(lpn)
        report = audit_ftl(ftl)
        assert not report.clean
        kinds = {v.kind for v in report.violations}
        assert (ViolationKind.GMT_INCONSISTENT in kinds
                or ViolationKind.MULTI_OWNER in kinds)

    def test_umt_entry_outside_staging_area(self):
        _, ftl = self.make_lazy()
        staging = set(ftl.uba_blocks) | set(ftl.cba_blocks)
        flash = ftl.flash
        lpn, ppn = next(
            (flash.oob_lpn[ppn], ppn)
            for pbn in range(flash.geometry.num_blocks) if pbn not in staging
            for ppn in flash.valid_ppns(pbn)
            if flash.oob(ppn).kind is PageKind.DATA
        )
        ftl.umt.set(lpn, ppn)  # UMT entry pointing outside UBA/CBA
        report = audit_ftl(ftl)
        assert any(v.kind is ViolationKind.UMT_INCONSISTENT
                   for v in report.violations)


class TestBuggyFTLEndToEnd:
    """The acceptance fixture: an FTL that skips erase-before-program is
    caught at the faulting op with a structured report and history."""

    def test_buggy_ftl_caught_with_structured_report(self):
        class InPlaceOverwriteFTL(PageFTL):
            """Overwrites a mapped lpn in place - the canonical FTL bug."""

            def write(self, lpn, data=None):
                ppn = self._map[lpn]
                if ppn is not None:
                    # Bug: reprogram the same physical page, no erase.
                    return self.flash.program_page(
                        ppn, data, OOBData(lpn=lpn, seq=0))
                return super().write(lpn, data)

        flash = make_flash()
        ftl = SanitizedFTL(InPlaceOverwriteFTL(flash, logical_pages=16))
        ftl.write(2, "first")
        with pytest.raises(SanitizerViolation) as exc_info:
            ftl.write(2, "second")
        v = exc_info.value.violation
        assert v.kind is ViolationKind.PROGRAM_WITHOUT_ERASE
        assert v.lpn == 2
        assert v.history  # the op trail is attached
        assert v.history[-1].op == "program"
        assert "program-without-erase" in str(exc_info.value)
