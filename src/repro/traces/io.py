"""Save/load traces in a simple line format.

Generated workloads can be persisted so experiments are replayable and
shareable without re-running generators (or to freeze a slice of a parsed
real trace).  Format, one request per line::

    # repro-trace v1 name=<name>
    W <lpn> <npages> [<arrival_us>]
    R <lpn> <npages> [<arrival_us>]

Parsing fills a trace's columns directly (no per-line ``IORequest``
allocation), and :func:`load_trace` consults the binary trace cache
(:mod:`repro.traces.cache`, keyed on path + mtime + size) so repeated
loads of an unchanged file skip text parsing entirely.
"""

from __future__ import annotations

from array import array
from typing import Optional, TextIO

from . import cache as trace_cache
from .model import NO_ARRIVAL, Trace

_HEADER_PREFIX = "# repro-trace v1"


class TraceFormatError(ValueError):
    """A trace file line could not be parsed."""


def dump_trace(trace: Trace, stream: TextIO) -> None:
    """Serialise a trace to an open text stream."""
    stream.write(f"{_HEADER_PREFIX} name={trace.name}\n")
    arrivals = trace.arrivals
    if arrivals is None:
        for op, lpn, npages in zip(trace.ops, trace.lpns, trace.npages):
            stream.write(f"{'W' if op else 'R'} {lpn} {npages}\n")
        return
    for op, lpn, npages, arrival in zip(
        trace.ops, trace.lpns, trace.npages, arrivals
    ):
        code = "W" if op else "R"
        if arrival != arrival:  # NaN: closed-loop request
            stream.write(f"{code} {lpn} {npages}\n")
        else:
            stream.write(f"{code} {lpn} {npages} {arrival!r}\n")


def save_trace(trace: Trace, path: str) -> None:
    """Serialise a trace to a file."""
    with open(path, "w") as f:
        dump_trace(trace, f)


def parse_trace(stream: TextIO, name: Optional[str] = None) -> Trace:
    """Deserialise a trace from an open text stream (counted as a text
    parse)."""
    trace_cache.stats.text_parses += 1
    trace_name = name or "trace"
    ops = array("b")
    lpns = array("q")
    npages_col = array("q")
    arrivals = array("d")
    any_arrival = False
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if text.startswith(_HEADER_PREFIX) and "name=" in text:
                header_name = text.split("name=", 1)[1].strip()
                if name is None and header_name:
                    trace_name = header_name
            continue
        parts = text.split()
        if len(parts) not in (3, 4):
            raise TraceFormatError(
                f"line {lineno}: expected 3 or 4 fields, got {len(parts)}"
            )
        code = parts[0].upper()
        if code == "W":
            op = 1
        elif code == "R":
            op = 0
        else:
            raise TraceFormatError(f"line {lineno}: unknown op {parts[0]!r}")
        try:
            lpn = int(parts[1])
            npages = int(parts[2])
            arrival = float(parts[3]) if len(parts) == 4 else None
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad number") from exc
        # Same validation (and messages) IORequest construction applied
        # when parsing built request objects.
        if lpn < 0:
            raise TraceFormatError(f"line {lineno}: lpn must be non-negative")
        if npages < 1:
            raise TraceFormatError(f"line {lineno}: npages must be >= 1")
        if arrival is None:
            arrivals.append(NO_ARRIVAL)
        elif not arrival >= 0:  # rejects NaN too
            raise TraceFormatError(
                f"line {lineno}: arrival_us must be non-negative"
            )
        else:
            any_arrival = True
            arrivals.append(arrival)
        ops.append(op)
        lpns.append(lpn)
        npages_col.append(npages)
    return Trace.from_columns(ops, lpns, npages_col,
                              arrivals if any_arrival else None,
                              name=trace_name)


def load_trace(path: str, name: Optional[str] = None) -> Trace:
    """Deserialise a trace from a file, via the binary cache when warm.

    The header's recorded name is used unless ``name`` overrides it.
    Cache entries key on (path, mtime_ns, size): editing or touching the
    file re-parses, an unchanged file on a second run does not.
    """
    def build() -> Trace:
        with open(path) as f:
            return parse_trace(f)

    trace = trace_cache.fetch(trace_cache.file_key("trace-file", path), build)
    if name is not None:
        trace.name = name
    return trace
