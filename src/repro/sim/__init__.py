"""Trace-driven simulation harness.

* :class:`Simulator` / :class:`SimulationResult` - replay a trace through
  an FTL with FCFS queueing and collect response-time statistics;
* :func:`build_ftl` / :func:`standard_setup` - scheme construction;
* :func:`run_scheme` / :func:`compare_schemes` / :func:`sweep` /
  :class:`DeviceSpec` - cross-scheme experiments;
* :mod:`~repro.sim.report` - table/series formatting for benchmarks.
"""

from .factory import (
    RECOVERABLE_SCHEMES,
    SCHEMES,
    RecoveryUnsupportedError,
    build_ftl,
    default_lazy_config,
    recover_ftl,
    standard_setup,
    supports_recovery,
)
from .metrics import LatencyDistribution, ResponseStats
from .report import format_series, format_table, relative_to
from .runner import (
    DEFAULT_OPTIONS,
    HEADLINE_DEVICE,
    DeviceSpec,
    compare_schemes,
    dftl_parity_options,
    lazy_headline_options,
    run_scheme,
    sweep,
)
from .simulator import SimulationResult, Simulator

__all__ = [
    "RECOVERABLE_SCHEMES",
    "SCHEMES",
    "RecoveryUnsupportedError",
    "build_ftl",
    "default_lazy_config",
    "recover_ftl",
    "standard_setup",
    "supports_recovery",
    "LatencyDistribution",
    "ResponseStats",
    "format_series",
    "format_table",
    "relative_to",
    "DEFAULT_OPTIONS",
    "HEADLINE_DEVICE",
    "lazy_headline_options",
    "dftl_parity_options",
    "DeviceSpec",
    "compare_schemes",
    "run_scheme",
    "sweep",
    "SimulationResult",
    "Simulator",
]
