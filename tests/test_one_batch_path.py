"""One batch path: ``repro.perf.batch`` holds one epoch planner (LazyFTL's),
one executor and one timing kernel (closed loop) - checked in the source
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
from repro.sim.factory import default_lazy_config
from repro.sim.golden import GOLDEN_DEVICE, golden_traces
from repro.sim.runner import run_scheme

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
BATCH = SRC / "perf" / "batch.py"

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


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_lazyftl_epoch_horizons_are_pinned(monkeypatch, cell):
    epochs = []
    run_epoch = batch.BatchEngine.run_epoch

    def spy(self, cols, start, h, responses, *rest):
        if responses is not None:
            epochs.append((start, h))
        return run_epoch(self, cols, start, h, responses, *rest)

    monkeypatch.setattr(batch.BatchEngine, "run_epoch", spy)
    for trace in golden_traces():
        epochs.clear()
        run_scheme("LazyFTL", trace, device=GOLDEN_DEVICE,
                   precondition="steady", **CELLS[cell])
        digest = hashlib.sha256(repr(epochs).encode()).hexdigest()[:16]
        assert (len(epochs), sum(h for _, h in epochs), digest) == \
            EPOCH_PINS[(cell, trace.name)], trace.name


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
        assert functions_calling(BATCH, "record_many") == ["_record_closed"]
