"""ftlbench: the repository's steady-state benchmark.

Host speed of the simulator and simulated behaviour of the modelled
device, measured together on five workloads, with a per-layer split taken
from outside the program.  See README.md in this directory; run with
``python benchmarks/ftlbench/run.py``.
"""
