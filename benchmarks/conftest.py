"""Shared infrastructure for the experiment benchmarks (E1..E13).

Every benchmark:

* runs its experiment once inside ``benchmark.pedantic`` (the wall-clock
  number pytest-benchmark reports is the *simulator's* cost, not the
  simulated device's - simulated times are in the printed tables);
* emits the paper-style table/series it reproduces via :func:`emit`,
  which persists it under ``benchmarks/results/<experiment>.txt`` and
  echoes every block in the terminal summary (so it appears in captured
  bench logs);
* asserts the qualitative *shape* the paper reports.
"""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Every workload here is generated on each run: generators are pure
# functions of their seeded parameters and never touch the binary trace
# cache (repro.traces.cache), which holds parsed trace files only.

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: Request count for the headline runs; sized so the whole bench suite
#: finishes in minutes of wall-clock while still reaching steady-state GC.
N_REQUESTS = 20000

_EMITTED = []


def emit(experiment: str, text: str) -> None:
    """Record a result block: print, persist, and queue for the summary."""
    print(f"\n===== {experiment} =====\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")
    _EMITTED.append((experiment, text))


def pytest_terminal_summary(terminalreporter):
    """Echo all experiment tables after the benchmark table."""
    if not _EMITTED:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 72)
    write("experiment outputs (also saved under benchmarks/results/)")
    write("=" * 72)
    for experiment, text in _EMITTED:
        write(f"\n----- {experiment} -----")
        for line in text.splitlines():
            write(line)


def measure(scheme, device, options, warm, trace):
    """One replay of ``trace`` after ``warm`` on a fresh ``device``
    (a :class:`~repro.sim.runner.DeviceSpec`); returns the result and the
    FTL, for what the result does not carry (E17, E18)."""
    from repro.sim import Simulator
    from repro.sim.factory import standard_setup

    _, ftl, _ = standard_setup(
        scheme, num_blocks=device.num_blocks,
        pages_per_block=device.pages_per_block, page_size=device.page_size,
        logical_fraction=device.logical_fraction, timing=device.timing,
        **options)
    return Simulator(ftl).run(trace, warmup=warm), ftl


def lazy_by_page(run):
    """``run()`` with LazyFTL's read run op replaced by the page loop it
    inherits from (restored after): the host read path before PR 22,
    without the per-request reuse of a held GMT page (E11, E18)."""
    from repro.core import LazyFTL
    from repro.ftl.base import FlashTranslationLayer

    read_run = LazyFTL.read_run
    try:
        LazyFTL.read_run = FlashTranslationLayer.read_run
        return run()
    finally:
        LazyFTL.read_run = read_run


def run_cells(cells, jobs=None):
    """Run a list of :class:`repro.perf.SweepCell` measurement cells.

    ``jobs`` defaults to the ``REPRO_BENCH_JOBS`` environment variable
    (``1`` if unset): the benchmarks stay serial by default so
    pytest-benchmark timings measure one process, but a sweep-heavy local
    run can fan out with ``REPRO_BENCH_JOBS=4 pytest benchmarks/``.
    Results are identical either way (workers rebuild the device/FTL).
    """
    import os

    from repro.perf.sweep import run_sweep

    if jobs is None:
        jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return run_sweep(cells, jobs=jobs)


def headline_traces(footprint: int):
    """The five workloads of the headline comparison (E3/E4)."""
    from repro.traces import (
        financial1,
        financial2,
        sequential,
        tpcc,
        uniform_random,
    )

    return [
        uniform_random(N_REQUESTS, footprint, seed=0, name="random"),
        sequential(N_REQUESTS, footprint, request_pages=4, seed=0,
                   name="sequential"),
        financial1(N_REQUESTS, footprint, seed=0),
        financial2(N_REQUESTS, footprint, seed=0),
        tpcc(N_REQUESTS, footprint, seed=0),
    ]
