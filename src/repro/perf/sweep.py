"""Parallel sweep runner: fan scheme x trace cells over worker processes.

A sweep is a list of independent measurement cells (one scheme replaying
one trace on one device).  Cells carry only small picklable *inputs* -
never a :class:`~repro.flash.chip.NandFlash` or an FTL instance, whose
state arrays would have to be copied to every worker.  Each worker
rebuilds the device and scheme from scratch instead, so a parallel run
replays exactly what a serial run would and the results are bit-identical
(regression-tested).

``jobs <= 1`` runs every cell in-process with no pool at all, which keeps
single-job invocations debuggable (breakpoints, profilers and coverage all
work) and is the mode the regression tests compare against.
"""

from __future__ import annotations

import multiprocessing
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

from ..sim.runner import DeviceSpec, run_scheme
from ..sim.simulator import SimulationResult
from ..traces.model import Trace


@dataclass(frozen=True)
class SweepCell:
    """One (scheme, trace) measurement cell of a sweep.

    Attributes:
        name: Label used in reports and error messages (e.g.
            ``"LazyFTL/financial1"``).
        scheme: FTL scheme name, as accepted by
            :func:`repro.sim.runner.run_scheme`.
        trace: The measured workload.
        device: Device spec (None uses the runner's default).
        warmup: Optional explicit pre-conditioning trace.
        precondition: Passed through to ``run_scheme`` (True / "steady").
        options: Extra keyword arguments for ``run_scheme`` (per-scheme
            constructor options, ``sanitize=...``, ...).
    """

    name: str
    scheme: str
    trace: Trace
    device: Optional[DeviceSpec] = None
    warmup: Optional[Trace] = None
    precondition: Any = True
    options: Dict[str, Any] = field(default_factory=dict)


class SweepWorkerError(RuntimeError):
    """A cell failed inside a worker process.

    Carries the cell name and the worker's formatted traceback, and stays
    picklable (a bare exception with a multi-arg ``__init__`` would break
    the pool's error propagation - the classic multiprocessing trap).
    """

    def __init__(self, cell_name: str, remote_traceback: str):
        super().__init__(
            f"sweep cell {cell_name!r} failed in worker:\n{remote_traceback}"
        )
        self.cell_name = cell_name
        self.remote_traceback = remote_traceback

    def __reduce__(self):
        return (SweepWorkerError, (self.cell_name, self.remote_traceback))


def cell_seed(base_seed: int, key: str) -> int:
    """Deterministic per-cell seed derived from a base seed and cell key.

    Stable across runs, processes and platforms (crc32, not ``hash()``,
    which is salted per-interpreter), so trace generation seeded this way
    produces identical workloads no matter which worker builds them.
    """
    return (base_seed * 1000003 + zlib.crc32(key.encode("utf-8"))) \
        & 0x7FFFFFFF


def _run_cell(cell: SweepCell) -> SimulationResult:
    """Worker entry point: rebuild everything, run one cell."""
    try:
        return run_scheme(
            cell.scheme,
            cell.trace,
            device=cell.device,
            warmup=cell.warmup,
            precondition=cell.precondition,
            **cell.options,
        )
    except Exception:
        raise SweepWorkerError(cell.name, traceback.format_exc()) from None


def run_tasks(
    fn: Callable[[_T], _R],
    tasks: Iterable[_T],
    jobs: int = 1,
    chunksize: Optional[int] = None,
) -> List[_R]:
    """Apply ``fn`` to every task, optionally across worker processes.

    The generic fan-out primitive behind :func:`run_sweep` and the crash
    model checker (:mod:`repro.checks.crashmc`): tasks and results must be
    picklable, ``fn`` must be a module-level callable, and result order
    always matches task order, so a parallel run is observationally
    identical to a serial one.

    Args:
        fn: Module-level worker function (anything pickle can import).
        tasks: The task inputs; order is preserved in the result.
        jobs: ``<= 1`` runs in-process (no pool, no pickling, breakpoints
            and coverage work); ``N > 1`` fans tasks over ``N`` workers.
        chunksize: Tasks handed to a worker per dispatch.  Defaults to an
            even split (``len/jobs``, capped at 32) so many cheap tasks -
            the crash checker's thousands of crash points - do not pay a
            round-trip per task.
    """
    task_list: Sequence[_T] = list(tasks)
    if jobs <= 1 or len(task_list) <= 1:
        return [fn(task) for task in task_list]
    workers = min(jobs, len(task_list))
    if chunksize is None:
        chunksize = max(1, min(32, len(task_list) // workers))
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(fn, task_list, chunksize=chunksize)


def run_sweep(
    cells: Iterable[SweepCell], jobs: int = 1
) -> List[SimulationResult]:
    """Run every cell and return the results in cell order.

    Args:
        cells: The measurement cells; order is preserved in the result.
        jobs: ``<= 1`` runs in-process (no pool, no pickling); ``N > 1``
            fans the cells over an ``N``-worker process pool.

    Raises:
        SweepWorkerError: The first cell that failed, with the worker's
            traceback attached (in-process runs raise it too, so callers
            handle one error shape for both modes).
    """
    # Sweep cells are heavyweight (each replays a whole trace), so they
    # are dispatched one at a time rather than with run_tasks' default
    # batching; everything else - ordering, the serial==parallel
    # guarantee, error propagation - is shared.
    return run_tasks(_run_cell, cells, jobs=jobs, chunksize=1)
