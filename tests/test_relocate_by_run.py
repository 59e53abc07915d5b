"""Moving pages by run is moving them one at a time - and runs do happen.

GC relocation (:func:`repro.ftl.stripe.relocate`) and LazyFTL's GMT commit
(:meth:`repro.ftl.mapping.MappingStore.commit`) issue one ``program_run``
(each page's read charged just before its program) and one bulk invalidate
per run - on a striped device too, a run rotating over the frontier's open
blocks.  On a device that takes no runs every program run is one page
long, and the run ops serve every run with the scalar op sequence (the
data pages a commit run displaced stay one invalidate run, served page
by page); a tracer sizes no run,
but the run ops serve a traced device's runs with the scalar ops too.
Four claims:

* *differential* - a device that refuses runs for a reason that changes
  nothing else (a power fault armed far beyond the workload) ends a
  fill + steady-overwrite replay in exactly the state of the plain one,
  per-unit busy time and channel wait included, on 1 and 4 channels -
  and, both traced, in the same event stream, whose ``MapRead``
  / ``MapWrite`` counts are the FTL's ``map_reads`` / ``map_writes``;
* *counting* - on the plain and the 4-channel device a GC pass and a
  conversion make no per-page program calls, and with a tracer attached
  they make the same runs, served by scalar calls in the scalar order;
* *one path* - the source of ``relocate``, ``commit`` and ``_commit_run``
  names no scalar program or invalidate and branches on no
  ``takes_runs()``, and on the sanitizer's device a GC pass and a
  conversion go through ``program_run`` in one-page runs;
* *end of life* - an ``OutOfBlocksError`` from DFTL's GC destination at a
  run boundary still pins the mapping of every page already moved.
"""

import ast
import inspect
import random
import textwrap
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import pytest

from repro.checks.flashsan import SanitizedNandFlash
from repro.core import LazyConfig, LazyFTL
from repro.flash import SLC_TIMING, FlashGeometry, NandFlash, PageKind
from repro.flash.page import VALID
from repro.ftl import DftlFTL, OutOfBlocksError, PageFTL
from repro.ftl.mapping import MappingStore
from repro.ftl.stripe import relocate
from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.golden import EventStreamHash

GEOMETRY = FlashGeometry(num_blocks=64, pages_per_block=16, page_size=64)
#: Channels of the geometries the differential runs on, by the label
#: the golden snapshots give them.
STRIPES = {"1x1x1": 1, "4x1x1": 4}
LOGICAL = 600  # of 1024 physical pages; 16 map entries per page -> 38 tvpns

SCHEMES = {
    "LazyFTL": lambda flash: LazyFTL(flash, LOGICAL, LazyConfig(
        uba_blocks=4, cba_blocks=2, gc_free_threshold=3)),
    "DFTL": lambda flash: DftlFTL(flash, LOGICAL, cmt_entries=48,
                                  gc_free_threshold=3),
    "ideal": lambda flash: PageFTL(flash, LOGICAL, gc_free_threshold=2),
}
RAW_OPS = ("read_page", "program_page", "program_run", "invalidate_page",
           "invalidate_run")
SCALAR_OPS = ("read_page", "program_page", "invalidate_page")


def build(scheme, refuse_runs=False, stripe="1x1x1", device=NandFlash,
          traced=False):
    flash = device(FlashGeometry(
        num_blocks=GEOMETRY.num_blocks,
        pages_per_block=GEOMETRY.pages_per_block,
        page_size=GEOMETRY.page_size, channels=STRIPES[stripe],
    ), SLC_TIMING)
    if refuse_runs:
        flash.fault.arm_after_programs(10 ** 12)  # never trips
    ftl = SCHEMES[scheme](flash)
    if traced:
        ftl.attach_tracer(Tracer([EventStreamHash()]))
    return ftl


def replay(ftl, overwrites=2500, seed=5):
    """Fill, then skewed overwrites with some reads; per-op latencies.
    Each request starts a host op on the device, as the simulator's
    replay loop does."""
    rng = random.Random(seed)
    begin = ftl.flash.begin_host_op
    latencies = []
    for lpn in range(LOGICAL):
        begin()
        latencies.append(ftl.write(lpn, ("fill", lpn)))
    for i in range(overwrites):
        hot = rng.random() < 0.8
        lpn = rng.randrange(LOGICAL // 5) if hot else rng.randrange(LOGICAL)
        begin()
        if rng.random() < 0.15:
            latencies.append(ftl.read(lpn).latency_us)
        else:
            latencies.append(ftl.write(lpn, (i, lpn)))
    return latencies


def ram_state(ftl):
    """The scheme's RAM tables and checkpoint fragment."""
    if isinstance(ftl, PageFTL):
        return list(ftl._map.raw)
    state = {"maps": ftl._maps.snapshot()}
    if isinstance(ftl, DftlFTL):
        state["cmt"] = [(lpn, e.ppn, e.dirty) for lpn, e in ftl._cmt.items()]
        state["dirty"] = {t: sorted(l) for t, l in ftl._dirty.pages.items()}
    else:
        state["umt"] = dict(ftl.umt.items())
        state["areas"] = (ftl.uba_blocks, ftl.cba_blocks, ftl.dba_blocks)
    return state


def full_image(ftl):
    flash = ftl.flash
    return {
        "ftl_stats": ftl.stats.as_dict(),
        "flash_stats": flash.stats.as_dict(),
        "page_states": bytes(flash.page_states),
        "page_data": list(flash.page_data),
        "oob": (bytes(flash.oob_lpn), bytes(flash.oob_seq),
                bytes(flash.oob_kind), bytes(flash.oob_cold)),
        "write_ptr": list(flash.write_ptr),
        "valid_count": list(flash.valid_count),
        "erase_count": list(flash.erase_count),
        "free": ftl._pool.snapshot(),
        "seq": ftl._seq.current,
        "ram": ram_state(ftl),
    }


@contextmanager
def counted():
    """Count (and order) the raw-op calls made on any NandFlash, and list
    the page count of each run op call."""
    calls = {name: 0 for name in RAW_OPS}
    order = []
    sizes = {"program_run": [], "invalidate_run": []}

    def spy(name):
        real = getattr(NandFlash, name)

        def wrapper(self, *args):
            calls[name] += 1
            # A program run's first target: a ppn, or a sequence of them.
            first = args[0]
            if name == "program_run":
                sizes[name].append(len(args[1]))
                if not isinstance(first, int):
                    first = first[0]
            elif name == "invalidate_run":
                sizes[name].append(len(first))
            order.append((name, first))
            return real(self, *args)
        return wrapper

    with ExitStack() as stack:
        for name in RAW_OPS:
            stack.enter_context(patch.object(NandFlash, name, spy(name)))
        yield calls, order, sizes


def assert_one_page_runs(calls, order, sizes):
    """Every program run moved exactly one page, and the device served
    every invalidate run - a commit's old GMT page (none for a
    never-written page), or the data pages one commit run displaced -
    with one ``invalidate_page`` per page, in order."""
    assert calls["program_run"] > 0
    assert set(sizes["program_run"]) == {1}
    for at, (name, ppns) in enumerate(order):
        if name == "invalidate_run":
            assert order[at + 1:at + 1 + len(ppns)] == \
                [("invalidate_page", ppn) for ppn in ppns]


def assert_reads_lead_runs(flash, order):
    """Each page read alone is the old copy of a GMT page, read just
    before the run that rewrites it (the data pages its entries supersede
    are invalidated in between)."""
    ops = [(name, ppn) for name, ppn in order if name != "invalidate_page"]
    for (name, ppn), (after, _) in zip(ops, ops[1:] + [(None, None)]):
        if name == "read_page":
            assert flash.oob(ppn).kind is PageKind.MAPPING
            assert after == "program_run"


@pytest.mark.parametrize("scheme,stripe", [
    pytest.param(scheme, stripe, id=scheme if stripe == "1x1x1"
                 else f"{scheme}-{stripe}")
    for stripe in STRIPES for scheme in sorted(SCHEMES)
])
class TestByRunIsByPage:
    def test_refusing_runs_changes_nothing(self, scheme, stripe):
        """The plain device's bulk runs, the same runs traced (served by
        the scalar ops) and the traced one-page runs of a refusing device
        end in one state; the two traced ones in one event stream."""
        by_run = build(scheme, stripe=stripe)
        traced = build(scheme, stripe=stripe, traced=True)
        by_page = build(scheme, refuse_runs=True, stripe=stripe, traced=True)
        latencies = []
        for ftl in (by_run, traced):
            with counted() as (calls, _, sizes):
                latencies.append(replay(ftl))
            assert max(sizes["program_run"]) > 1, \
                "the plain device never took a run"
        with counted() as (calls, order, sizes):
            latencies.append(replay(by_page))
        assert_one_page_runs(calls, order, sizes)
        assert latencies[0] == latencies[1] == latencies[2]
        assert by_run.stats.gc_runs > 100  # GC steady state reached
        want = full_image(by_page)
        for ftl in (by_run, traced):
            for key, got in full_image(ftl).items():
                assert got == want[key], key
            # Per-unit busy time and channel wait: the run ops charged
            # every unit clock in the scalar op order.
            assert ftl.flash.parallel_summary() == \
                by_page.flash.parallel_summary()
        streams = [ftl.tracer.sinks[0] for ftl in (traced, by_page)]
        assert streams[0].events == streams[1].events > 0
        assert streams[0].hexdigest() == streams[1].hexdigest()
        assert traced.tracer.clock == by_page.tracer.clock
        # The never-tripping fault is the only difference between them.
        assert by_page.flash.fault.armed and not traced.flash.fault.armed


@pytest.mark.parametrize("stripe", ["1x1x1", "4x1x1"])
@pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL"])
def test_map_events_are_the_map_counters(scheme, stripe):
    """The device states each map event; the FTL counts each map op.  In
    a traced steady replay - host lookups, commits or CMT flushes, and
    translation-block GC - the two agree."""
    ftl = build(scheme, stripe=stripe, traced=True)
    replay(ftl)
    assert ftl.stats.map_gc_copies > 0
    tally = ftl.tracer.attribution.tally(ftl.tracer.scheme)
    assert tally.count(EventType.MAP_READ) == ftl.stats.map_reads
    assert tally.count(EventType.MAP_WRITE) == ftl.stats.map_writes



def test_lazyftl_flush_and_checkpoint_agree_too():
    by_run, by_page = build("LazyFTL"), build("LazyFTL", refuse_runs=True)
    for ftl in (by_run, by_page):
        replay(ftl, overwrites=900)
    assert by_run.flush() == by_page.flush()
    assert by_run.checkpoint() == by_page.checkpoint()
    assert full_image(by_run) == full_image(by_page)


def aged(scheme, tracer=None, stripe="1x1x1"):
    """A device in GC steady state; the tracer attaches only afterwards."""
    ftl = build(scheme, stripe=stripe)
    replay(ftl, overwrites=1200)
    ftl.flash.tracer = tracer
    return ftl


def ripe(ftl):
    """Convert, uncounted, the UBA blocks ahead of the first one whose
    conversion commits an entry (global batching can leave a full block
    with none), so the next ``_convert_oldest`` writes GMT pages; returns
    that block."""
    while True:
        held = ftl._uba_frontier.open_blocks
        pbn = next((b for b in ftl._uba if b not in held), ftl._uba.oldest)
        if ftl._deferred_lpns(pbn):
            return pbn
        ftl._convert_oldest(ftl._uba)


def data_victim(ftl):
    """A full data block with live and dead pages (the greedy pick may be
    a translation block; this names a data one)."""
    valid = ftl.flash.valid_count
    return min((pbn for pbn in ftl._gc.blocks if 2 <= valid[pbn] < 16),
               key=lambda pbn: (-valid[pbn], pbn))


class TestRunsReallyHappen:
    def test_ideal_data_victim_moves_in_one_run_per_destination(self):
        ftl = aged("ideal")
        victim = data_victim(ftl)
        live = ftl.flash.valid_count[victim]
        copies = ftl.stats.gc_page_copies
        with counted() as (calls, order, _):
            ftl._gc.collect(victim)
        assert ftl.stats.gc_page_copies - copies == live
        assert calls["program_page"] == calls["invalidate_page"] == 0
        destinations = {ppn // 16 for name, ppn in order
                        if name == "program_run"}
        assert 1 <= len(destinations) <= 2
        assert calls["read_page"] == calls["program_run"] == \
            calls["invalidate_run"] == len(destinations)

    def test_lazyftl_data_victim_and_its_conversions(self):
        ftl = aged("LazyFTL")
        victim = data_victim(ftl)
        converts = ftl.stats.converts
        with counted() as (calls, _, _):
            ftl._gc.collect(victim)
        # Copies, and the GMT pages of any conversion the pass forced, all
        # went out by run; only a run's first page is read alone.
        assert calls["program_page"] == 0
        runs = 2 + 2 * (ftl.stats.converts - converts)
        assert 1 <= calls["program_run"] <= runs
        assert calls["read_page"] <= calls["program_run"]

    @pytest.mark.parametrize("scheme", ["LazyFTL", "DFTL"])
    def test_mapping_victim_moves_in_one_run_per_destination(self, scheme):
        ftl = aged(scheme)
        maps = ftl._maps
        victim = min(maps.full_blocks, key=lambda pbn: (
            -ftl.flash.valid_count[pbn], pbn))
        live = ftl.flash.valid_count[victim]
        assert live >= 2
        copies, reads, writes = (ftl.stats.gc_page_copies,
                                 ftl.stats.map_reads, ftl.stats.map_writes)
        with counted() as (calls, order, _):
            ftl._gc.collect(victim)
        assert ftl.stats.gc_page_copies - copies == live
        assert ftl.stats.map_reads - reads == live
        assert ftl.stats.map_writes - writes == live
        assert calls["program_page"] == calls["invalidate_page"] == 0
        destinations = {ppn // 16 for name, ppn in order
                        if name == "program_run"}
        assert calls["read_page"] == calls["program_run"] == \
            len(destinations) <= 2

    @pytest.mark.parametrize("stripe", ["1x1x1", "4x1x1"])
    @pytest.mark.parametrize("scheme", ["ideal", "LazyFTL-map"])
    def test_a_traced_pass_moves_by_run(self, scheme, stripe):
        """A tracer sizes no run: the pass plans the runs an untraced one
        does, and ``program_run`` serves them with the scalar ops."""
        ftl = aged(scheme.split("-")[0], tracer=Tracer(), stripe=stripe)
        if scheme == "ideal":
            victim = data_victim(ftl)
        else:
            victim = min(ftl._maps.full_blocks, key=lambda pbn: (
                -ftl.flash.valid_count[pbn], pbn))
        srcs = ftl.flash.valid_ppns(victim)
        with counted() as (calls, order, sizes):
            ftl._gc.collect(victim)
        assert max(sizes["program_run"]) > 1
        assert sum(sizes["program_run"]) == calls["program_page"] == len(srcs)
        assert calls["invalidate_page"] == 0
        # read src -> program dst, page by page, across the runs.
        scalar = [(name, ppn) for name, ppn in order if name in SCALAR_OPS]
        assert [name for name, _ in scalar] == \
            ["read_page", "program_page"] * len(srcs)
        assert [ppn for name, ppn in scalar if name == "read_page"] == srcs

    @pytest.mark.parametrize("stripe", ["1x1x1", "4x1x1"])
    def test_a_traced_conversion_moves_by_run(self, stripe):
        ftl = aged("LazyFTL", tracer=Tracer(), stripe=stripe)
        ripe(ftl)
        writes = ftl.stats.map_writes
        with counted() as (calls, order, sizes):
            ftl._convert_oldest(ftl._uba)
        assert max(sizes["program_run"]) > 1
        assert sum(sizes["program_run"]) == calls["program_page"] == \
            ftl.stats.map_writes - writes

    @pytest.mark.parametrize("scheme", ["ideal", "LazyFTL"])
    def test_a_striped_gc_pass_moves_by_run(self, scheme):
        ftl = aged(scheme, stripe="4x1x1")
        victim = data_victim(ftl)
        copies = ftl.stats.gc_page_copies
        with counted() as (calls, _, _):
            ftl._gc.collect(victim)
        assert ftl.stats.gc_page_copies > copies
        # Copies, and the GMT pages of any conversion the pass forced, all
        # went out by run; only a run's first page is read alone.
        assert calls["program_page"] == 0
        assert 1 <= calls["program_run"]
        assert calls["read_page"] <= calls["program_run"]

    def test_a_striped_conversion_moves_by_run(self):
        ftl = aged("LazyFTL", stripe="4x1x1")
        ripe(ftl)
        writes = ftl.stats.map_writes
        with counted() as (calls, order, _):
            ftl._convert_oldest(ftl._uba)
        assert ftl.stats.map_writes - writes >= 2
        assert calls["program_page"] == 0
        assert calls["program_run"] >= 1
        assert_reads_lead_runs(ftl.flash, order)

    def test_one_conversion_is_at_most_two_program_runs(self):
        ftl = aged("LazyFTL")
        oldest = ftl._uba.oldest
        tvpns = {ftl.flash.oob_lpn[ppn] // ftl.entries_per_page
                 for ppn in ftl.flash.valid_ppns(oldest)
                 if ftl.umt.points_to(ftl.flash.oob_lpn[ppn], ppn)}
        assert len(tvpns) >= 3
        writes = ftl.stats.map_writes
        with counted() as (calls, order, _):
            ftl._convert_oldest(ftl._uba)
        assert ftl.stats.map_writes - writes >= len(tvpns)
        assert calls["program_page"] == 0
        assert 1 <= calls["program_run"] <= 2
        assert calls["read_page"] <= calls["program_run"]
        assert_reads_lead_runs(ftl.flash, order)

    @pytest.mark.parametrize("refuse_runs", [False, True])
    @pytest.mark.parametrize("stripe", sorted(STRIPES))
    def test_a_conversion_retires_once_per_commit_run(self, stripe,
                                                      refuse_runs):
        """The commit hook gets each run's displaced entries in one call,
        after that run's program - never per entry, never before."""
        ftl = build("LazyFTL", refuse_runs=refuse_runs, stripe=stripe)
        replay(ftl, overwrites=1200)
        retire = ftl._retire_displaced
        with counted() as (calls, order, _):
            ftl._retire_displaced = lambda displaced: (
                order.append(("hook", len(displaced))), retire(displaced))
            converts = ftl.stats.converts
            ftl.flush()
        hooks = [n for name, n in order if name == "hook"]
        assert ftl.stats.converts - converts >= 2
        assert sum(hooks) > len(hooks) >= 1
        assert len(hooks) <= calls["program_run"]
        runs = [name for name, _ in order
                if name in ("program_run", "hook")]
        assert runs[0] == "program_run"
        assert ("hook", "hook") not in set(zip(runs, runs[1:]))


def _mentions(node, names):
    """Does ``node`` call ``takes_runs`` or load one of ``names``?"""
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "takes_runs"
        or isinstance(sub, ast.Name) and sub.id in names
        for sub in ast.walk(node))


class TestOnePath:
    """One way to move pages: ``takes_runs()`` only sizes the plan."""

    @pytest.mark.parametrize("mover", [
        relocate, MappingStore.commit, MappingStore._commit_run,
    ], ids=lambda mover: mover.__name__)
    def test_no_scalar_arm(self, mover):
        assert "record" not in inspect.signature(mover).parameters
        tree = ast.parse(textwrap.dedent(inspect.getsource(mover)))
        named = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.Name))}
        assert not named & {"program_page", "invalidate_page"}
        # Names bound, directly or not, to the answer of takes_runs().
        bound = set()
        while True:
            fresh = {target.id for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and _mentions(node.value, bound)
                     for target in node.targets
                     if isinstance(target, ast.Name)} - bound
            if not fresh:
                break
            bound |= fresh
        # The answer may size a plan; no statement may branch on it.
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While)):
                assert not _mentions(node.test, bound), ast.unparse(node.test)
            if isinstance(node, (ast.For, ast.While)):
                assert not any(
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "takes_runs" for sub in ast.walk(node)), \
                    "takes_runs() asked inside a loop"

    def test_the_sanitizer_sees_one_page_runs(self):
        ftl = build("LazyFTL", device=SanitizedNandFlash)
        replay(ftl, overwrites=1200)  # audited: a finding raises
        victim = data_victim(ftl)
        live = ftl.flash.valid_count[victim]
        with counted() as (calls, order, sizes):
            ftl._gc.collect(victim)
        assert_one_page_runs(calls, order, sizes)
        assert calls["program_page"] == calls["program_run"] >= live
        writes = ftl.stats.map_writes
        with counted() as (calls, order, sizes):
            ftl._convert_oldest(ftl._uba)
        assert ftl.stats.map_writes - writes >= 2
        assert_one_page_runs(calls, order, sizes)
        assert calls["program_page"] == calls["program_run"] == \
            ftl.stats.map_writes - writes
        assert_reads_lead_runs(ftl.flash, order)

    @pytest.mark.parametrize("device", [NandFlash, SanitizedNandFlash])
    def test_the_sanitizer_refuses_a_one_block_run(self, device):
        """A one-block ``range`` run - every run at one channel - is the
        bulk path's cheapest case; on the sanitizer's device it is still
        served page by page, each read and program audited."""
        flash = device(GEOMETRY, SLC_TIMING)
        flash.program_run(0, [None] * 4, [0, 1, 2, 3], 1, PageKind.DATA,
                          False)
        with counted() as (calls, _, _):
            flash.program_run(range(16, 20), ["a", "b", "c", "d"],
                              [4, 5, 6, 7], 5, PageKind.DATA, True,
                              [None, 1, 2, 3])
        scalar = device is SanitizedNandFlash
        assert calls["program_page"] == (4 if scalar else 0)
        assert calls["read_page"] == (3 if scalar else 0)
        assert flash.page_data[16:20] == ["a", "b", "c", "d"]
        assert [flash.oob(ppn).seq for ppn in range(16, 20)] == [5, 6, 7, 8]
        assert flash.write_ptr[1] == flash.valid_count[1] == 4


@pytest.mark.parametrize("refuse_runs", [False, True])
@pytest.mark.parametrize("room", [0, 5])
def test_dftl_end_of_life_at_a_run_boundary_pins_what_moved(
        refuse_runs, room):
    """The pool dries up with ``room`` free pages left in the GC block:
    the first ``room`` live pages of the victim move (one full run on the
    plain device), then the destination raises.  Every moved page's
    mapping must be pinned dirty in the CMT - the victim is about to be
    erased by nobody, but its pages are already invalid."""
    ftl = build("DFTL", refuse_runs=refuse_runs)
    replay(ftl, overwrites=1200)
    flash = ftl.flash
    victim = data_victim(ftl)
    srcs = flash.valid_ppns(victim)
    assert len(srcs) > room
    lpns = [flash.oob_lpn[src] for src in srcs]
    payloads = [flash.page_data[src] for src in srcs]
    # Leave exactly ``room`` free pages in the GC block, and no pool.
    def pad(pbn, until):
        while 16 - flash.write_ptr[pbn] > until:
            flash.program_page(pbn * 16 + flash.write_ptr[pbn], None)

    gc_block = ftl._gc_active.take(1)
    if gc_block is not None and 16 - flash.write_ptr[gc_block] < room:
        pad(gc_block, 0)
        gc_block = ftl._gc_active.take(1)  # retires it: None
    if gc_block is None:
        gc_block = ftl._gc_active.open()
    pad(gc_block, room)
    ftl._pool.refill([])
    with pytest.raises(OutOfBlocksError):
        ftl._collect_data_block(victim)
    moved, left = lpns[:room], lpns[room:]
    for lpn, payload in zip(moved, payloads):
        entry = ftl._cmt[lpn]
        assert entry.dirty and lpn in ftl._dirty.pages[lpn // 16]
        assert entry.ppn // 16 == gc_block
        assert flash.page_states[entry.ppn] == VALID
        assert flash.page_data[entry.ppn] == payload
        assert ftl.read(lpn).data == payload  # a CMT hit: no allocation
    assert [flash.page_states[src] == VALID for src in srcs] == \
        [False] * room + [True] * len(left)
