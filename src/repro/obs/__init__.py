"""Observability: structured event tracing and metrics for the simulator.

The subsystem has six layers:

* **events** - the typed taxonomy (:class:`EventType`, :class:`Cause`,
  :class:`TraceEvent`) and its JSONL record format;
* **tracer** - the :class:`Tracer` threaded through the flash chip, the
  FTL schemes and the simulator; zero overhead when detached;
* **sinks** - JSONL and ring-buffer sinks;
* **tally** - the one fold of the stream: a ``Tally`` of count and time
  per (event type, cause), cut per run (``RunTotals``, the tracer's
  ``attribution``), per window and per host op;
* **metrics / latency / series** - :class:`LatencyDistribution`, the one
  latency distribution (exact nearest-rank percentiles), the per-op
  cause decomposition (:class:`OpLatencyRecorder`, one distribution per
  op class) and the windowed time-series :class:`SeriesCollector`;
* **report** - one :func:`collect_report` snapshot per run, rendered by
  :func:`render_report` or consumed as JSON (``repro report``).

Quick start::

    from repro.obs import JsonlSink, Tracer
    from repro.sim import HEADLINE_DEVICE, compare_schemes

    tracer = Tracer([JsonlSink("run.jsonl")])
    results = compare_schemes(trace, device=HEADLINE_DEVICE, tracer=tracer)
    tracer.close()
    print(tracer.attribution.scheme_summary("LazyFTL"))

or, from the command line::

    python -m repro compare --trace random --trace-out run.jsonl --metrics
    python -m repro inspect-trace run.jsonl
"""

from .events import (
    FLASH_OP_TYPES,
    HOST_OP_TYPES,
    SCHEMA_VERSION,
    SPAN_PAIRS,
    Cause,
    EventType,
    TraceEvent,
)
from .latency import OpLatencyRecorder
from .metrics import LatencyDistribution
from .report import (
    SNAPSHOT_SCHEMA,
    build_snapshot,
    collect_report,
    load_snapshot,
    render_report,
    save_snapshot,
    sparkline,
    validate_snapshot,
)
from .series import SERIES_SCHEMA_VERSION, SeriesCollector
from .sinks import JsonlSink, RingBufferSink, TraceSink
from .tally import BUCKETS, bucket_of
from .tracer import Tracer

__all__ = [
    "FLASH_OP_TYPES",
    "HOST_OP_TYPES",
    "SCHEMA_VERSION",
    "SPAN_PAIRS",
    "Cause",
    "EventType",
    "TraceEvent",
    "BUCKETS",
    "OpLatencyRecorder",
    "bucket_of",
    "LatencyDistribution",
    "SNAPSHOT_SCHEMA",
    "build_snapshot",
    "collect_report",
    "load_snapshot",
    "render_report",
    "save_snapshot",
    "sparkline",
    "validate_snapshot",
    "SERIES_SCHEMA_VERSION",
    "SeriesCollector",
    "JsonlSink",
    "RingBufferSink",
    "TraceSink",
    "Tracer",
]
