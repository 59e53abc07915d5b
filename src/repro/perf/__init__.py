"""Performance infrastructure: flat mapping tables, the batch engine and
the parallel sweep.

``repro.perf`` holds the machinery that makes the simulator fast without
changing what it computes:

* :mod:`repro.perf.maptable` - array-backed logical->physical tables
  (:class:`MapTable`), used by every FTL scheme's hot path;
* :mod:`repro.perf.batch` - LazyFTL's epoch batch engine: one planner
  and one executor for closed-loop stretches with no slow event, whose
  services go to the replay's response column (imported by the
  simulator, not re-exported here);
* :mod:`repro.perf.sweep` - the multiprocessing sweep runner that fans
  scheme x trace cells across worker processes.

Statistics invariance is the contract: everything in this package must
leave simulated results bit-identical (enforced by
``tests/test_golden_stats.py``).
"""

from .maptable import UNMAPPED, MapTable

__all__ = [
    "MapTable",
    "UNMAPPED",
    "SweepCell",
    "SweepWorkerError",
    "cell_seed",
    "run_sweep",
]

_SWEEP_EXPORTS = ("SweepCell", "SweepWorkerError", "cell_seed", "run_sweep")


def __getattr__(name):
    # Lazy: repro.perf.sweep pulls in the whole simulator stack, while the
    # FTL hot paths import this package for maptable alone - an eager
    # import here would be circular (mapping -> perf -> sweep -> runner ->
    # lazyftl -> mapping).
    if name in _SWEEP_EXPORTS:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
