"""Workload traces: model, synthetic generators, and real-trace parsers.

Built-in generators (all deterministic under ``seed``):

* :func:`uniform_random`, :func:`sequential`, :func:`hot_cold`, :func:`zipf`,
  :func:`mixed`, :func:`warmup_fill` - synthetic patterns;
* :func:`financial1`, :func:`financial2` - OLTP (UMass Financial-like);
* :func:`websearch` - read-dominant search-index workload;
* :func:`tpcc` - mixed OLTP with table-shaped locality;
* :func:`parse_spc_file` - loads real SPC-format traces when you have them.

A :class:`Trace` is four machine-typed columns (struct of arrays; see
:mod:`repro.traces.model`); parsed trace files are memoised on disk by the
binary trace cache (:mod:`repro.traces.cache`).
"""

from . import cache
from .financial import financial1, financial2
from .io import TraceFormatError, dump_trace, load_trace, parse_trace, save_trace
from .model import NO_ARRIVAL, IORequest, OpType, Trace, merge_traces
from .msr import MSRFormatError, parse_msr, parse_msr_file, parse_msr_line
from .spc import SPCFormatError, parse_spc, parse_spc_file, parse_spc_line
from .stats import characterize
from .synthetic import (
    hot_cold,
    mixed,
    sequential,
    uniform_random,
    warmup_fill,
    zipf,
)
from .tpcc import tpcc
from .websearch import websearch

__all__ = [
    "IORequest",
    "OpType",
    "Trace",
    "NO_ARRIVAL",
    "cache",
    "merge_traces",
    "characterize",
    "uniform_random",
    "sequential",
    "hot_cold",
    "zipf",
    "mixed",
    "warmup_fill",
    "financial1",
    "financial2",
    "websearch",
    "tpcc",
    "SPCFormatError",
    "parse_spc",
    "parse_spc_file",
    "parse_spc_line",
    "MSRFormatError",
    "parse_msr",
    "parse_msr_file",
    "parse_msr_line",
    "TraceFormatError",
    "dump_trace",
    "load_trace",
    "parse_trace",
    "save_trace",
]
