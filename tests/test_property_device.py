"""Property-based tests for the superblock baseline, the block-device
layer and the raw NAND device (the bulk run ops vs their scalar expansion)."""

import warnings
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checks.flashsan import SanitizedNandFlash
from repro.checks.report import SanitizerViolation
from repro.core import LazyConfig, LazyFTL
from repro.device import FlashBlockDevice
from repro.flash import (
    SLC_TIMING,
    UNIT_TIMING,
    FlashError,
    FlashGeometry,
    NandFlash,
    OOBData,
    PageKind,
    PageState,
)
from repro.obs.tracer import Tracer

LOGICAL = 48
SLOW = settings(deadline=None, max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])

ops_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=LOGICAL - 1)),
    min_size=1,
    max_size=300,
)


def check_read_your_writes(ftl, ops):
    shadow = {}
    for i, (is_write, lpn) in enumerate(ops):
        if is_write:
            ftl.write(lpn, (lpn, i))
            shadow[lpn] = (lpn, i)
        else:
            assert ftl.read(lpn).data == shadow.get(lpn)
    for lpn, value in shadow.items():
        assert ftl.read(lpn).data == value


class TestExtraBaselinesReadYourWrites:
    @SLOW
    @given(ops=ops_strategy)
    def test_superblock(self, ops):
        from repro.ftl.superblock import SuperblockFTL

        flash = NandFlash(
            FlashGeometry(num_blocks=28, pages_per_block=4, page_size=64),
            timing=UNIT_TIMING,
        )
        ftl = SuperblockFTL(flash, LOGICAL, blocks_per_superblock=4,
                            spare_per_superblock=1)
        check_read_your_writes(ftl, ops)


# Sector-level operations: (is_write, lba, n_sectors)
sector_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=150),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=150,
)


class TestBlockDeviceSectorSemantics:
    @SLOW
    @given(ops=sector_ops)
    def test_sector_shadow_consistency(self, ops):
        flash = NandFlash(
            FlashGeometry(num_blocks=36, pages_per_block=4, page_size=256),
            timing=UNIT_TIMING,
        )
        ftl = LazyFTL(flash, logical_pages=64,
                      config=LazyConfig(uba_blocks=2, cba_blocks=2,
                                        gc_free_threshold=3))
        device = FlashBlockDevice(ftl, sector_size=64)  # 4 sectors/page
        shadow = {}
        token = 0
        for is_write, lba, n in ops:
            n = min(n, device.capacity_sectors - lba)
            if n <= 0 or lba >= device.capacity_sectors:
                continue
            if is_write:
                payload = [(lba + j, token) for j in range(n)]
                token += 1
                device.write(lba, payload)
                for j in range(n):
                    shadow[lba + j] = payload[j]
            else:
                got = device.read(lba, n).sectors
                expect = [shadow.get(lba + j) for j in range(n)]
                assert got == expect
        for lba, value in shadow.items():
            assert device.read(lba, 1).sectors == [value]


# ----------------------------------------------------------------------
# Raw device: random op scripts, legal and illegal, on the serial, 2- and
# 4-channel, serial-timed (1 and 4 channels) and sanitized devices; all
# but the serial-timed and sanitized devices take the bulk paths, and on
# one channel ``serialize_timing`` changes nothing but that.  Two claims:
#
# * a run op is *n* scalar ops - ``read_run`` / ``program_run``
#   (consecutive, or striped over several blocks with the read each
#   program follows) / ``invalidate_run`` against ``read_page`` /
#   ``program_page`` / ``invalidate_page`` in order: same page-state bytes,
#   data/OOB, write pointers, valid counts, ``invalidated``,
#   ``FlashStats``, unit clocks, busy times, channel wait and host-op
#   count, returned values, warnings, exception type and first failing
#   page, and an armed ``PowerFault`` trips at the same op index through
#   either;
# * after every step the per-block counters agree with a recount of the
#   page-state array (``valid_count[b] == count(VALID)``, nothing
#   programmed at or past the write pointer).
# ----------------------------------------------------------------------
BLOCKS, PPB = 8, 4
TOTAL = BLOCKS * PPB


def _device(channels=1, cls=NandFlash):
    return lambda seq: cls(FlashGeometry(BLOCKS, PPB, 512, channels=channels),
                           SLC_TIMING, enforce_sequential=seq)


DEVICES = {
    "serial": _device(),
    "parallel": _device(4),
    "parallel_2": _device(2),
    "serialized": lambda seq: serialized(_device(4)(seq)),
    "serialized_serial": lambda seq: serialized(_device()(seq)),
    "sanitized": _device(cls=SanitizedNandFlash),
    "traced": lambda seq: traced(_device(4)(seq)),
}

# Addresses reach one past either end of the device so range errors are
# part of every script; the "frontier" forms aim at a block's current
# write pointer and the "block" forms at its programmed / VALID pages, so
# legal programs and whole legal runs are common too.  Address lists may
# repeat a page (a second invalidate of it is redundant) and be empty.
ppns = st.integers(-1, TOTAL)
pbns = st.integers(0, BLOCKS - 1)
ppn_lists = st.lists(ppns, max_size=PPB + 2)
ops = st.one_of(
    st.tuples(st.just("begin"), st.just(0)),
    st.tuples(st.just("stripe_run"), st.lists(pbns, min_size=1, max_size=3),
              st.integers(0, 2 * PPB), st.lists(st.none() | ppns,
                                                max_size=2 * PPB)),
    st.tuples(st.just("program"), ppns),
    st.tuples(st.just("run"), ppns, st.integers(0, PPB + 1)),
    st.tuples(st.just("frontier_program"), pbns),
    st.tuples(st.just("frontier_run"), pbns, st.integers(1, PPB + 1)),
    st.tuples(st.just("read"), ppns),
    st.tuples(st.just("read_run"), ppn_lists),
    st.tuples(st.just("block_read_run"), pbns, ppn_lists),
    st.tuples(st.just("probe"), ppns),
    st.tuples(st.just("invalidate"), ppns),
    st.tuples(st.just("invalidate_run"), ppn_lists),
    st.tuples(st.just("block_invalidate_run"), pbns, ppn_lists),
    st.tuples(st.just("erase"), st.integers(-1, BLOCKS)),
)


def apply(flash, op, step, bulk):
    """Run one script op; returns ``(result, exception type or None,
    warning categories)``."""
    kind, addr = op[0], op[1]
    if kind.startswith("frontier_"):
        kind = kind[len("frontier_"):]
        addr = addr * PPB + flash.write_ptr[addr]
    elif kind == "block_invalidate_run":
        kind = "invalidate_run"
        addr = flash.valid_ppns(addr) + op[2]
    elif kind == "block_read_run":
        # The block's programmed pages, then the drawn ones: a whole
        # legal run when nothing is drawn.
        kind = "read_run"
        addr = [ppn for ppn in range(addr * PPB, (addr + 1) * PPB)
                if flash.page_states[ppn]] + op[2]
    elif kind == "stripe_run":
        # Page i on block addr[i % L] from its write pointer: a rotation
        # (illegal when a block repeats or fills).
        ways = len(addr)
        addr = [addr[i % ways] * PPB + flash.write_ptr[addr[i % ways]]
                + i // ways for i in range(op[2])]
        # A drawn read names the i-th programmed page (so whole legal
        # runs are common), or a raw ppn while nothing is programmed.
        programmed = [ppn for ppn in range(TOTAL) if flash.page_states[ppn]]
        reads = [None if i is None else
                 programmed[i % len(programmed)] if programmed else i
                 for i in op[3]]
        op = (kind, addr, op[2], reads)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _apply(flash, kind, addr, op, step, bulk)
            error = None
        except (FlashError, SanitizerViolation) as exc:
            result, error = None, type(exc)
    return result, error, [w.category for w in caught]


def _apply(flash, kind, addr, op, step, bulk):
    if kind == "begin":
        return flash.begin_host_op()
    if kind == "stripe_run":
        n = len(addr)
        datas = [(step, i) for i in range(n)]
        lpns, seq, oob_kind, cold = run_columns(step, n)
        reads = (op[3] + [None] * n)[:n]
        if bulk:
            return flash.program_run(addr, datas, lpns, seq, oob_kind, cold,
                                     reads)
        total = 0.0
        for i in range(n):
            if reads[i] is not None:
                total += flash.read_page(reads[i])[1]
            total += flash.program_page(addr[i], datas[i], OOBData(
                lpns[i], seq + i, oob_kind, cold))
        return total
    if kind == "program":
        return flash.program_page(addr, step, OOBData(lpn=step, seq=step))
    if kind == "run":
        datas = [(step, i) for i in range(op[2])]
        lpns, seq, oob_kind, cold = run_columns(step, op[2])
        if bulk:
            return flash.program_run(addr, datas, lpns, seq, oob_kind, cold)
        total = 0.0
        for i in range(op[2]):
            total += flash.program_page(addr + i, datas[i], OOBData(
                lpns[i], seq + i, oob_kind, cold))
        return total
    if kind == "read":
        return flash.read_page(addr)
    if kind == "read_run":
        if bulk:
            return flash.read_run(addr)
        datas, total = [], 0.0
        for ppn in addr:
            data, latency = flash.read_page(ppn)
            datas.append(data)
            total += latency
        return tuple(datas), total
    if kind == "probe":
        return flash.probe_page(addr)
    if kind == "invalidate":
        return flash.invalidate_page(addr)
    if kind == "invalidate_run":
        if bulk:
            return flash.invalidate_run(addr)
        for ppn in addr:
            flash.invalidate_page(ppn)
        return None
    return flash.erase_block(addr)


def run_columns(step, n):
    """The OOB columns of a run at script step ``step``: ``(lpns,
    first_seq, kind, cold)``, every field varying with the step."""
    kind = (PageKind.DATA, PageKind.MAPPING, PageKind.CHECKPOINT)[step % 3]
    return [step + i for i in range(n)], 100 * step, kind, step % 2 == 1


def image(flash):
    return (
        bytes(flash.page_states), list(flash.page_data),
        bytes(flash.oob_lpn), bytes(flash.oob_seq), bytes(flash.oob_kind),
        bytes(flash.oob_cold), list(flash.write_ptr),
        list(flash.valid_count), list(flash.erase_count),
        bytes(flash.is_bad), set(flash.invalidated),
        flash.stats.as_dict(), flash.powered,
        flash.fault.tripped, flash.fault.trip_op_index,
        flash.fault.trip_site, list(flash._unit_busy), flash._op_end,
        list(flash.unit_busy_us), flash.channel_wait_us, flash.host_ops,
    )


def serialized(flash):
    flash.serialize_timing = True
    return flash


def traced(flash):
    flash.tracer = Tracer()
    return flash


def check_counters(flash):
    for pbn in range(BLOCKS):
        states = flash.page_states[pbn * PPB:(pbn + 1) * PPB]
        assert flash.valid_count[pbn] == states.count(PageState.VALID)
        tail = states[flash.write_ptr[pbn]:]
        assert tail.count(PageState.FREE) == len(tail)


@settings(deadline=None, max_examples=400)
@given(
    device=st.sampled_from(sorted(DEVICES)),
    sequential=st.booleans(),
    script=st.lists(ops, max_size=40),
    fault_at=st.none() | st.integers(0, 12),
    endurance=st.none() | st.integers(1, 2),
)
def test_bulk_run_is_n_scalar_programs(device, sequential, script,
                                       fault_at, endurance):
    bulk, scalar = (DEVICES[device](sequential)
                    for _ in range(2))
    for flash in (bulk, scalar):
        flash.endurance = endurance
        if fault_at is not None:
            flash.fault.arm_at_op_index(fault_at)
    for step, op in enumerate(script):
        got = apply(bulk, op, step, bulk=True)
        want = apply(scalar, op, step, bulk=False)
        assert got == want, (step, op)
        assert image(bulk) == image(scalar), (step, op)
        check_counters(bulk)


def test_a_stepped_range_is_its_own_pages():
    """``program_run`` takes a ``range`` of ppns as well as a list; a
    stepped one names every other page, not the block slice its first
    page starts.  In-order device: the second page is refused after the
    first is programmed; relaxed one: pages 0 and 2."""
    for sequential, states in ((True, (1, 0, 0, 0)), (False, (1, 0, 1, 0))):
        results = []
        devices = [DEVICES["serial"](sequential) for _ in range(2)]
        for flash, bulk, addr in zip(devices, (True, False),
                                     (range(0, 4, 2), [0, 2])):
            try:
                results.append(_apply(flash, "stripe_run", addr,
                                      ("stripe_run", addr, 2, []), 1, bulk))
            except FlashError as exc:
                results.append(type(exc))
        assert results[0] == results[1]
        assert image(devices[0]) == image(devices[1])
        assert bytes(devices[0].page_states[:4]) == bytes(states)


def test_the_bulk_paths_are_taken_and_refused():
    """The fuzz above is vacuous if the serial device never leaves the
    per-page calls - or if a refusing device ever does.  A
    traced device takes runs but serves ``program_run`` and ``read_run``
    with the scalar calls: the tracer must see each one's events."""
    bulk, scalar = (0, 0, 0), (4, 3, 2)
    for device, runs, expected in [
        ("serial", True, bulk),
        ("serialized_serial", False, scalar),
        ("parallel", True, bulk),
        ("parallel_2", True, bulk),
        ("serialized", False, scalar),
        ("sanitized", False, scalar),
        ("traced", True, (4, 3, 0)),
    ]:
        flash = DEVICES[device](True)
        assert flash.takes_runs() is runs
        with patch.object(NandFlash, "program_page", autospec=True,
                          side_effect=NandFlash.program_page) as program, \
                patch.object(NandFlash, "read_page", autospec=True,
                             side_effect=NandFlash.read_page) as read, \
                patch.object(NandFlash, "invalidate_page", autospec=True,
                             side_effect=NandFlash.invalidate_page) as inval:
            flash.program_run(0, [0, 1, 2], [0, 1, 2], 0, PageKind.DATA,
                              False)
            # A copy of page 2.
            flash.program_run(PPB, [3], [2], 3, PageKind.DATA, False, [2])
            flash.invalidate_run([1, 2])
            # Two programmed pages, one of them stale.
            got = flash.read_run([0, 2])
        calls = (program.call_count, read.call_count, inval.call_count)
        assert calls == expected, device
        assert got == ((0, 2), 2 * SLC_TIMING.page_read_us), device
        assert bytes(flash.page_states[:4]) == bytes((1, 2, 2, 0))
        assert flash.invalidated == {0}


@pytest.mark.parametrize("device", ["serial", "parallel"])
@pytest.mark.parametrize("case", ["free", "out_of_range", "negative",
                                  "powered_off", "armed_fault"])
def test_read_run_stops_where_the_page_loop_stops(device, case):
    """``read_run`` on twin devices against ``read_page`` in order: the
    same exception at the same page, every earlier page charged, the same
    image - on a FREE page, a page past either end, a powered-off device
    and an armed fault (which refuses runs; reads do not trip it)."""
    run = {"free": [0, 1, PPB + 2, 2], "out_of_range": [0, 1, TOTAL, 2],
           "negative": [0, -1, 2]}.get(case, [0, 2, 1])
    twins = [DEVICES[device](True) for _ in range(2)]
    for flash in twins:
        flash.program_run(0, ["a", "b", "c"], [0, 1, 2], 0, PageKind.DATA,
                          False)
        if case == "powered_off":
            flash.power_off()
        elif case == "armed_fault":
            flash.fault.arm_after_programs(1)
    got = apply(twins[0], ("read_run", run), 0, bulk=True)
    want = apply(twins[1], ("read_run", run), 0, bulk=False)
    assert got == want
    assert image(twins[0]) == image(twins[1])
    charged = {"free": 2, "out_of_range": 2, "negative": 1,
               "powered_off": 0}.get(case, 3)
    assert twins[0].stats.page_reads == charged
    if case == "armed_fault":
        assert got == (
            (("a", "c", "b"), 3 * SLC_TIMING.page_read_us), None, [])
    else:
        assert got[0] is None and got[1] is not None
