"""Parser for MSR Cambridge block traces.

The MSR Cambridge production-server traces (SNIA IOTTA repository) are the
other staple corpus of the FTL/SSD literature.  Format: CSV lines ::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

* ``Timestamp`` - Windows filetime (100 ns ticks since 1601);
* ``Type`` - ``Read`` or ``Write`` (case-insensitive);
* ``Offset``/``Size`` - byte-granular;
* ``ResponseTime`` - the original system's latency (ignored here; the
  simulator computes its own).

Like the SPC parser, addresses can be compacted onto a dense page space
(preserving overwrite behaviour) so a trace slice fits a simulated device;
parsing fills the trace's columns directly and :func:`parse_msr_file` is
binary-cached.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from . import cache as trace_cache
from .model import IORequest, OpType, Trace
from .spc import _check_max_requests, _compact_columns


class MSRFormatError(ValueError):
    """A line of the MSR trace file could not be parsed."""


def parse_msr_line(
    line: str,
    page_size: int = 2048,
    disk_stride_pages: int = 1 << 24,
) -> Optional[IORequest]:
    """Parse one MSR CSV line into a page-granular request.

    Returns None for blank/comment/header lines; raises
    :class:`MSRFormatError` for malformed data lines.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = [p.strip() for p in text.split(",")]
    if parts and parts[0].lower() == "timestamp":
        return None  # header row
    if len(parts) < 6:
        raise MSRFormatError(f"expected >=6 fields, got {len(parts)}: {line!r}")
    try:
        timestamp = int(parts[0])
        disk = int(parts[2])
        kind = parts[3].lower()
        offset = int(parts[4])
        size = int(parts[5])
    except ValueError as exc:
        raise MSRFormatError(f"bad field in line {line!r}") from exc
    if kind == "read":
        op = OpType.READ
    elif kind == "write":
        op = OpType.WRITE
    else:
        raise MSRFormatError(f"unknown operation type {parts[3]!r}")
    if size <= 0 or offset < 0 or disk < 0 or timestamp < 0:
        raise MSRFormatError(f"non-sensical values in line {line!r}")
    first_page = offset // page_size
    last_page = (offset + size - 1) // page_size
    return IORequest(
        op=op,
        lpn=disk * disk_stride_pages + first_page,
        npages=last_page - first_page + 1,
        arrival_us=timestamp / 10.0,  # 100 ns ticks -> microseconds
    )


def parse_msr(
    lines: Iterable[str],
    page_size: int = 2048,
    name: str = "msr",
    max_requests: Optional[int] = None,
    compact: bool = True,
    rebase_time: bool = True,
) -> Trace:
    """Parse an iterable of MSR CSV lines into a :class:`Trace`.

    Args:
        max_requests: Stop after this many requests (None: read all).
        compact: Remap touched pages onto a dense 0..N space (see
            :mod:`repro.traces.spc`).
        rebase_time: Shift arrival timestamps so the trace starts at 0
            (filetimes are astronomically large otherwise).
    """
    _check_max_requests(max_requests)
    trace_cache.stats.text_parses += 1
    ops = array("b")
    lpns = array("q")
    npages = array("q")
    arrivals = array("d")
    for line in lines:
        if max_requests is not None and len(ops) >= max_requests:
            break
        request = parse_msr_line(line, page_size=page_size)
        if request is None:
            continue
        ops.append(1 if request.op is OpType.WRITE else 0)
        lpns.append(request.lpn)
        npages.append(request.npages)
        arrivals.append(request.arrival_us)
    if rebase_time and arrivals:
        t0 = min(arrivals)
        arrivals = array("d", (t - t0 for t in arrivals))
    trace = Trace.from_columns(ops, lpns, npages, arrivals, name=name)
    return _compact_columns(trace) if compact else trace


def parse_msr_file(
    path: str,
    page_size: int = 2048,
    name: Optional[str] = None,
    max_requests: Optional[int] = None,
    compact: bool = True,
) -> Trace:
    """Parse an MSR Cambridge trace file from disk (binary-cached)."""
    def build() -> Trace:
        with open(path) as f:
            return parse_msr(
                f, page_size=page_size, name=name or path,
                max_requests=max_requests, compact=compact,
            )

    key = trace_cache.file_key(
        "msr-file", path,
        page_size=page_size, max_requests=max_requests, compact=compact,
    )
    trace = trace_cache.fetch(key, build)
    trace.name = name or path
    return trace
