"""One merge driver: ``LogBlockFTL._merge_copy`` is the only merge copy
loop and ``LogBlockFTL._merging`` the only ``MergeStart`` / ``MergeEnd``
bracket, for BAST and FAST alike - checked in the source, in a spy run of
every scheme, and at the failure edge the bracket exists for."""

import ast
import importlib.util
import pathlib

import pytest

from repro.flash import NandFlash, PowerLossError
from repro.ftl import logblock
from repro.ftl.pool import OutOfBlocksError
from repro.obs import JsonlSink, Tracer
from repro.obs.events import Cause, EventType
from repro.obs.sinks import TraceSink
from repro.sim.factory import standard_setup
from repro.sim.golden import (
    GOLDEN_DEVICE,
    LOG_BLOCK_SCHEMES,
    golden_merges_trace,
)
from repro.sim.runner import DEFAULT_OPTIONS, run_scheme

REPO = pathlib.Path(__file__).resolve().parent.parent
FTL_SOURCES = sorted((REPO / "src" / "repro" / "ftl").glob("*.py"))

#: Every merge kind of every merging scheme; the starred ones allocate a
#: fresh block (the others only fill their log block and erase).
MERGE_KINDS = {
    "BAST": ("switch", "partial", "full*"),
    "FAST": ("sw", "rw*"),
}


def functions_matching(predicate):
    """``file:function`` of every function under ``src/repro/ftl`` one of
    whose own nodes (nested definitions excluded) satisfies ``predicate``."""
    found = []
    for path in FTL_SOURCES:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack = list(func.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if predicate(node):
                    found.append(f"{path.name}:{func.name}")
                    break
                stack.extend(ast.iter_child_nodes(node))
    return found


def increments_merge_page_copies(node):
    return (isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr == "merge_page_copies")


def names_merge_start(node):
    return isinstance(node, ast.Attribute) and node.attr == "MERGE_START"


class TestOneMergeLoop:
    def test_every_merging_scheme_is_checked(self):
        """Each log-block scheme but superblock (which cleans in-group and
        never merges) has its merge kinds above."""
        assert set(MERGE_KINDS) == set(LOG_BLOCK_SCHEMES) - {"superblock"}

    def test_one_function_counts_merge_copies(self):
        assert functions_matching(increments_merge_page_copies) == \
            ["logblock.py:_merge_copy"]

    def test_one_function_opens_merge_spans(self):
        assert functions_matching(names_merge_start) == \
            ["logblock.py:_merging"]

    def test_no_inner_twin_is_left(self):
        twins = []
        for path in FTL_SOURCES:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef) and \
                        node.name.startswith("_merge") and \
                        node.name.endswith("_inner"):
                    twins.append(f"{path.name}:{node.name}")
        assert twins == []

    @pytest.mark.parametrize("scheme", MERGE_KINDS)
    def test_merge_programs_come_from_the_driver(self, monkeypatch, scheme):
        """Over the merge trace: every page programmed while a merge span
        is open is programmed by ``_merge_copy``, and every kind of merge
        the scheme has was seen."""
        state = {"in_driver": 0, "merge_programs": 0}
        tracer = Tracer()
        real_copy = logblock.LogBlockFTL._merge_copy
        real_program = NandFlash.program_page

        def copy_spy(self, dst_pbn, sources):
            state["in_driver"] += 1
            try:
                return real_copy(self, dst_pbn, sources)
            finally:
                state["in_driver"] -= 1

        def program_spy(self, ppn, data, oob=None):
            if tracer.current_cause is Cause.MERGE:
                assert state["in_driver"] == 1, \
                    f"{scheme} programs ppn {ppn} in a merge, not by the driver"
                state["merge_programs"] += 1
            return real_program(self, ppn, data, oob)

        monkeypatch.setattr(logblock.LogBlockFTL, "_merge_copy", copy_spy)
        monkeypatch.setattr(NandFlash, "program_page", program_spy)
        kinds = KindsSeen()
        tracer.sinks.append(kinds)
        result = run_scheme(scheme, golden_merges_trace(),
                            device=GOLDEN_DEVICE, precondition="steady",
                            tracer=tracer)
        assert kinds.seen == {k.rstrip("*") for k in MERGE_KINDS[scheme]}
        # (the spy saw the warm-up's merges too, the statistics did not)
        assert state["merge_programs"] >= \
            result.ftl_stats.merge_page_copies > 0


class KindsSeen(TraceSink):
    def __init__(self):
        self.seen = set()

    def emit(self, event):
        if event.type is EventType.MERGE_START:
            self.seen.add(event.extra["kind"])


class Saboteur(TraceSink):
    """Arms ``sabotage`` at every ``MergeStart`` of ``kind`` and disarms it
    at that merge's ``MergeEnd`` unless it struck: the failure lands inside
    a merge of exactly that kind, or nowhere."""

    def __init__(self, kind, sabotage, restore, struck):
        self.kind, self.sabotage, self.restore = kind, sabotage, restore
        self.struck = struck
        self.struck_inside = False

    def emit(self, event):
        if event.extra.get("kind") != self.kind or self.struck_inside:
            return
        if event.type is EventType.MERGE_START:
            self.sabotage()
        elif event.type is EventType.MERGE_END:
            if self.struck():
                self.struck_inside = True
            else:
                self.restore()


def load_check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace_schema_under_test",
        REPO / "tools" / "check_trace_schema.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_trace


FAILURES = [
    (scheme, kind.rstrip("*"), failure)
    for scheme, kinds in MERGE_KINDS.items() for kind in kinds
    for failure in ("power", "out-of-blocks")
    if failure == "power" or kind.endswith("*")
]


@pytest.mark.parametrize("scheme,kind,failure", FAILURES)
def test_a_merge_that_dies_half_way_still_closes_its_span(
        tmp_path, scheme, kind, failure):
    """The fresh block's ``allocate()`` raising ``OutOfBlocksError``, or
    power failing at the merge's second program (its erase, if it copies
    one page; BAST's switch merge is an erase and nothing else): the
    ``MergeEnd`` is still emitted, the cause stack is back at ``host`` and
    the JSONL passes ``check_trace_schema``."""
    flash, ftl, _ = standard_setup(
        scheme, num_blocks=GOLDEN_DEVICE.num_blocks,
        pages_per_block=GOLDEN_DEVICE.pages_per_block,
        page_size=GOLDEN_DEVICE.page_size,
        logical_fraction=GOLDEN_DEVICE.logical_fraction,
        **DEFAULT_OPTIONS[scheme])
    pool = ftl._pool
    real_allocate = pool.allocate
    fired = []

    def no_block():
        fired.append(True)
        raise OutOfBlocksError("sabotaged")

    if failure == "out-of-blocks":
        saboteur = Saboteur(
            kind, lambda: setattr(pool, "allocate", no_block),
            lambda: setattr(pool, "allocate", real_allocate),
            lambda: bool(fired))
        expected = OutOfBlocksError
    else:
        after = 0 if (scheme, kind) == ("BAST", "switch") else 1
        saboteur = Saboteur(
            kind, lambda: flash.fault.arm_at_op_index(after),
            flash.fault.disarm, lambda: flash.fault.tripped)
        expected = PowerLossError
    path = tmp_path / "died.jsonl"
    tracer = Tracer([JsonlSink(str(path)), saboteur])
    for lpn in range(ftl.logical_pages):
        ftl.write(lpn, lpn)
    ftl.attach_tracer(tracer)
    tracer.begin_run(ftl.name)
    with pytest.raises(expected):
        for request in golden_merges_trace():
            for lpn in request.pages:
                if request.is_write:
                    ftl.write(lpn, lpn)
                else:
                    ftl.read(lpn)
    tracer.close()
    assert saboteur.struck_inside, "the failure did not land inside a merge"
    assert tracer.current_cause is Cause.HOST
    assert tracer._cause_stack == [Cause.HOST] and tracer._span_stack == []
    assert list(load_check_trace()(str(path))) == []
    last = path.read_text(encoding="utf-8").splitlines()[-1]
    assert '"MergeEnd"' in last and f'"kind": "{kind}"' in last
