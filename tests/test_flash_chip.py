"""Unit tests for the NandFlash device: ops, latency charging, stats."""

import pytest

from repro.flash import (
    BadBlockError,
    FlashGeometry,
    MLC_TIMING,
    NandFlash,
    OOBData,
    PageState,
    ProgramError,
    RedundantInvalidateWarning,
    UNIT_TIMING,
    SLC_TIMING,
)
from repro.obs.tracer import Tracer


def make_chip(blocks=4, pages=8, timing=SLC_TIMING):
    return NandFlash(FlashGeometry(num_blocks=blocks, pages_per_block=pages),
                     timing=timing)


class TestBasicOps:
    def test_program_then_read_roundtrip(self):
        chip = make_chip()
        oob = OOBData(lpn=5, seq=0)
        chip.program_page(0, "hello", oob)
        data, _ = chip.read_page(0)
        assert data == "hello"
        assert chip.oob(0) == oob and chip.oob_lpn[0] == 5

    def test_latencies_match_timing_model(self):
        chip = make_chip()
        lat_w = chip.program_page(0, "x")
        data, lat_r = chip.read_page(0)
        lat_e = None
        chip.invalidate_page(0)
        lat_e = chip.erase_block(0)
        assert lat_w == SLC_TIMING.page_program_us
        assert lat_r == SLC_TIMING.page_read_us
        assert lat_e == SLC_TIMING.block_erase_us

    def test_stats_accumulate(self):
        chip = make_chip(timing=UNIT_TIMING)
        chip.program_page(0, "a")
        chip.program_page(1, "b")
        chip.read_page(0)
        chip.invalidate_page(0)
        chip.invalidate_page(1)
        chip.erase_block(0)
        s = chip.stats
        assert s.page_programs == 2
        assert s.page_reads == 1
        assert s.block_erases == 1
        assert s.total_ops == 4
        assert s.total_us == 4.0

    def test_sequential_programming_across_blocks(self):
        chip = make_chip(blocks=2, pages=2)
        chip.program_page(0, "a")
        chip.program_page(1, "b")
        # block 1 starts its own write pointer
        chip.program_page(2, "c")
        assert chip.write_ptr == [2, 1]

    def test_non_sequential_program_rejected(self):
        chip = make_chip()
        with pytest.raises(ProgramError):
            chip.program_page(3, "x")

    def test_invalidate_costs_no_time(self):
        chip = make_chip()
        chip.program_page(0, "a")
        before = chip.stats.total_us
        chip.invalidate_page(0)
        assert chip.stats.total_us == before
        assert chip.page_state(0) is PageState.INVALID

    def test_invalidate_notes_the_block_until_taken(self):
        chip = make_chip(blocks=3, pages=2)
        for ppn in range(6):
            chip.program_page(ppn, ppn)
        assert chip.invalidated == set()      # programs are not noted
        chip.invalidate_page(4)
        chip.invalidate_page(0)
        chip.invalidate_page(1)
        assert chip.invalidated == {0, 2}
        assert chip.take_invalidated() == {0, 2}
        assert chip.invalidated == set() and chip.take_invalidated() == set()
        with pytest.warns(RedundantInvalidateWarning):
            chip.invalidate_page(4)           # no count moved: not noted
        chip.erase_block(0)                   # nor does an erase
        assert chip.invalidated == set()


class TestEraseCounts:
    def test_erase_counts_per_block(self):
        chip = make_chip(blocks=3, pages=1)
        chip.program_page(0, "a")
        chip.invalidate_page(0)
        chip.erase_block(0)
        chip.erase_block(1)
        assert chip.erase_counts() == [1, 1, 0]


class TestStatsSnapshots:
    def test_snapshot_diff(self):
        chip = make_chip(timing=UNIT_TIMING)
        chip.program_page(0, "a")
        snap = chip.stats.snapshot()
        chip.program_page(1, "b")
        chip.read_page(0)
        d = chip.stats.diff(snap)
        assert d.page_programs == 1
        assert d.page_reads == 1
        assert d.block_erases == 0

    def test_as_dict_keys(self):
        chip = make_chip()
        d = chip.stats.as_dict()
        assert set(d) == {
            "page_reads", "page_programs", "block_erases",
            "read_us", "program_us", "erase_us",
            "redundant_invalidates",
        }


class TestOneImplementationPerOp:
    """Each raw op is one class method: what it does cannot depend on
    whether a tracer is attached or on when a setting was assigned."""

    RAW_OPS = ("read_page", "read_run", "probe_page", "program_page",
               "program_run", "erase_block", "invalidate_page",
               "invalidate_run", "takes_runs", "valid_ppns")

    @staticmethod
    def script(chip):
        """program / read / probe / invalidate / erase x2; returns the
        latencies and the exception of the over-endurance erase."""
        latencies = [
            chip.program_page(0, "a", OOBData(lpn=1, seq=0)),
            chip.read_page(0)[1],
            chip.probe_page(1)[1],
        ]
        chip.invalidate_page(0)
        latencies.append(chip.erase_block(0))
        with pytest.raises(BadBlockError) as exc:
            chip.erase_block(0)
        return latencies, exc.value

    @pytest.mark.parametrize("attach_first", [False, True])
    def test_timing_and_endurance_reassigned_after_construction(
            self, attach_first):
        untraced, traced = make_chip(), make_chip()
        if attach_first:
            traced.tracer = Tracer()
        for chip in (untraced, traced):
            chip.timing = MLC_TIMING
            chip.endurance = 1
        if not attach_first:
            traced.tracer = Tracer()
        lat_u, err_u = self.script(untraced)
        lat_t, err_t = self.script(traced)
        assert lat_u == lat_t == [
            MLC_TIMING.page_program_us, MLC_TIMING.page_read_us,
            MLC_TIMING.page_read_us, MLC_TIMING.block_erase_us,
        ]
        assert untraced.stats == traced.stats
        assert untraced.stats.block_erases == 2  # the failed erase is charged
        assert (err_u.pbn, err_u.erase_count) == \
            (err_t.pbn, err_t.erase_count) == (0, 2)
        assert untraced.bad_blocks() == traced.bad_blocks() == [0]

    def test_tracer_never_changes_which_function_runs(self):
        chip = make_chip()
        for tracer in (None, Tracer(), None):
            chip.tracer = tracer
            for name in self.RAW_OPS:
                assert getattr(chip, name).__func__ is \
                    getattr(NandFlash, name)
            shadows = [
                name for name, value in vars(chip).items()
                if callable(value) and callable(getattr(NandFlash, name, None))
            ]
            assert shadows == []
