"""LazyFTL reproduction (SIGMOD 2011, Ma / Feng / Li).

A full implementation of the LazyFTL page-level flash translation layer
together with everything needed to evaluate it the way the paper does: a
raw NAND flash simulator, the BAST / FAST / DFTL / ideal-page-mapping
baselines, workload generators and real-trace parsers, a trace-driven
simulator with response-time accounting, and crash recovery with
power-loss injection.

Quick start::

    from repro import LazyFTL, NandFlash, FlashGeometry

    flash = NandFlash(FlashGeometry(num_blocks=256))
    ftl = LazyFTL(flash, logical_pages=12000)
    ftl.write(0, b"hello")
    assert ftl.read(0).data == b"hello"

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from .core import LazyConfig, LazyFTL, RecoveryReport, recover
from .flash import (
    FlashGeometry,
    MLC_TIMING,
    NandFlash,
    PowerLossError,
    SLC_TIMING,
    TimingModel,
    UNIT_TIMING,
    geometry_for_capacity,
)
from .ftl import (
    BastFTL,
    DftlFTL,
    FastFTL,
    FlashTranslationLayer,
    PageFTL,
    ReadResult,
)
from .sim import (
    DeviceSpec,
    SimulationResult,
    Simulator,
    build_ftl,
    compare_schemes,
    run_scheme,
    standard_setup,
)
from .traces import (
    IORequest,
    OpType,
    Trace,
    financial1,
    financial2,
    hot_cold,
    mixed,
    parse_spc_file,
    sequential,
    tpcc,
    uniform_random,
    warmup_fill,
    websearch,
    zipf,
)

__version__ = "1.0.0"

__all__ = [
    "LazyConfig",
    "LazyFTL",
    "RecoveryReport",
    "recover",
    "FlashGeometry",
    "MLC_TIMING",
    "NandFlash",
    "PowerLossError",
    "SLC_TIMING",
    "TimingModel",
    "UNIT_TIMING",
    "geometry_for_capacity",
    "BastFTL",
    "DftlFTL",
    "FastFTL",
    "FlashTranslationLayer",
    "PageFTL",
    "ReadResult",
    "DeviceSpec",
    "SimulationResult",
    "Simulator",
    "build_ftl",
    "compare_schemes",
    "run_scheme",
    "standard_setup",
    "IORequest",
    "OpType",
    "Trace",
    "financial1",
    "financial2",
    "hot_cold",
    "mixed",
    "parse_spc_file",
    "sequential",
    "tpcc",
    "uniform_random",
    "warmup_fill",
    "websearch",
    "zipf",
    "__version__",
]
