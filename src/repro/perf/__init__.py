"""Performance infrastructure: flat mapping tables, the batch engine and
the parallel sweep.

``repro.perf`` holds the machinery that makes the simulator fast without
changing what it computes:

* :mod:`repro.perf.maptable` - array-backed logical->physical tables
  (:class:`MapTable`), used by every FTL scheme's hot path;
* :mod:`repro.perf.batch` - LazyFTL's epoch batch engine: one loop that
  serves closed-loop stretches with no slow event in bulk, their
  services going to the replay's response column (imported by the
  simulator, not re-exported here);
* :mod:`repro.perf.sweep` - the multiprocessing sweep runner that fans
  scheme x trace cells across worker processes (import it from there: it
  pulls in the whole simulator stack, which imports this package).

Statistics invariance is the contract: everything in this package must
leave simulated results bit-identical (enforced by
``tests/test_golden_stats.py``).
"""

from .maptable import UNMAPPED, MapTable

__all__ = ["MapTable", "UNMAPPED"]
