"""One batch path: ``repro.perf.batch`` holds one epoch planner (LazyFTL's)
and one executor, and the replay records one response column - checked
in the source
(the eligibility gate is ``test_batch_replay.TestEligibilityGate``) - and
that planner's horizons are pinned.

LazyFTL's epoch planner decides which stretches of a trace replay in
bulk.  Its answers do not show in any simulated number (an epoch equals
its scalar turns bit for bit), so the golden snapshots cannot see a
planner that starts planning shorter or longer horizons.  These pins
can: every measured epoch ``(start, h)`` on the two golden traces, per
LazyFTL option cell that bounds an epoch differently, as (epochs,
batched requests, sha256 prefix of the list).
"""

import ast
import hashlib
import pathlib

import pytest

from repro.perf import batch
from repro.sim import simulator
from repro.sim.factory import default_lazy_config
from repro.sim.golden import GOLDEN_DEVICE, golden_traces
from repro.sim.runner import run_scheme

from .test_integration_openloop import open_loop_trace

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
BATCH = SRC / "perf" / "batch.py"
SIMULATOR = SRC / "sim" / "simulator.py"

CELLS = {
    "default": {},
    "checkpoint_interval=40": {
        "config": default_lazy_config(checkpoint_interval=40)},
}

EPOCH_PINS = {
    ("default", "golden-random"): (77, 1424, "180d98e3b4131c6d"),
    ("default", "golden-hotcold"): (55, 1146, "2867cb2ab7cffb77"),
    ("checkpoint_interval=40", "golden-random"):
        (84, 1341, "26518ea998cd2f91"),
    ("checkpoint_interval=40", "golden-hotcold"):
        (62, 1091, "9dffabb1af8e1c3d"),
}


def check_epoch_pins(monkeypatch, cell):
    epochs = []
    run_epoch = batch.BatchEngine.run_epoch

    def spy(self, cols, start, h, column, *rest):
        if column is not None:
            epochs.append((start, h))
        return run_epoch(self, cols, start, h, column, *rest)

    monkeypatch.setattr(batch.BatchEngine, "run_epoch", spy)
    for trace in golden_traces():
        epochs.clear()
        run_scheme("LazyFTL", trace, device=GOLDEN_DEVICE,
                   precondition="steady", **CELLS[cell])
        digest = hashlib.sha256(repr(epochs).encode()).hexdigest()[:16]
        assert (len(epochs), sum(h for _, h in epochs), digest) == \
            EPOCH_PINS[(cell, trace.name)], trace.name


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_lazyftl_epoch_horizons_are_pinned(monkeypatch, cell):
    check_epoch_pins(monkeypatch, cell)


def recorded(trace, scheme="LazyFTL"):
    """What a replay recorded: each distribution's sample bytes and
    total, and the device-busy time."""
    result = run_scheme(scheme, trace, device=GOLDEN_DEVICE,
                        precondition="steady")
    dists = result.responses.overall, result.responses.reads, \
        result.responses.writes
    return ([(bytes(d._samples), d.total) for d in dists],
            result.device_busy_us)


@pytest.mark.parametrize("chunk", [1, 3])
def test_the_response_column_records_the_same_in_any_chunk(monkeypatch,
                                                            chunk):
    """The replay records its response column once per
    ``RESPONSE_CHUNK`` requests (never cutting an epoch): a chunk of one
    or three requests records what the default does - closed loop with
    epochs, and an open-loop trace - and plans the same epochs."""
    traces = [*golden_traces(),
              open_loop_trace(600, GOLDEN_DEVICE.logical_pages, 150.0)]
    want = [recorded(trace) for trace in traces] + \
        [recorded(traces[-1], "DFTL")]
    monkeypatch.setattr(simulator, "RESPONSE_CHUNK", chunk)
    assert [recorded(trace) for trace in traces] + \
        [recorded(traces[-1], "DFTL")] == want
    for cell in CELLS:
        check_epoch_pins(monkeypatch, cell)


def functions_calling(path, attr):
    """``function`` names in ``path`` whose body calls ``*.attr(...)``."""
    found = []
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr for node in ast.walk(func)):
            found.append(func.name)
    return found


def functions_naming(path, attr):
    """``function`` names in ``path`` whose body names ``*.attr``."""
    return [
        func.name
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef) and any(
            isinstance(node, ast.Attribute) and node.attr == attr
            for node in ast.walk(func))
    ]


class TestOneBatchPath:
    def test_one_planner_in_the_source(self):
        planners = [
            f"{path.relative_to(SRC).as_posix()}:{node.name}"
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
            and node.name in ("plan_epoch", "execute_epoch")
        ]
        assert planners == ["perf/batch.py:plan_epoch"]

    def test_one_class_in_the_engine(self):
        tree = ast.parse(BATCH.read_text(encoding="utf-8"))
        assert [node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)] == ["BatchEngine"]

    def test_one_executor_programs_the_device(self):
        assert functions_calling(BATCH, "program_run") == ["_execute"]

    def test_one_timing_kernel_records_responses(self):
        """The replay records its one response column, epochs and scalar
        turns alike, with ``ResponseStats.record_many``; the engine only
        appends to the column."""
        assert functions_naming(SIMULATOR, "record_many") == ["_replay"]
        assert functions_naming(SIMULATOR, "record") == []
        assert functions_naming(BATCH, "record_many") == []
