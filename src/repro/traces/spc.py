"""Parser for SPC-format block traces (UMass Financial / Websearch files).

The SPC trace format is CSV with fields::

    ASU, LBA, Size, Opcode, Timestamp[, ...]

* ``ASU`` - application-specific unit (a logical volume); we offset each ASU
  into its own region of the logical space so volumes do not alias;
* ``LBA`` - logical block address in 512-byte sectors;
* ``Size`` - request size in bytes;
* ``Opcode`` - ``R``/``r`` or ``W``/``w``;
* ``Timestamp`` - seconds since trace start (float).

If you have the real ``Financial1.spc`` etc. from the UMass Trace Repository,
:func:`parse_spc_file` turns them into :class:`~repro.traces.model.Trace`
objects directly usable by the simulator and benchmarks.  Parsing fills
the trace's columns directly, and :func:`parse_spc_file` goes through the
binary trace cache (keyed on path + mtime + size + parse parameters) so a
multi-hundred-MB SPC file is tokenised once per content, not once per run.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from . import cache as trace_cache
from .model import IORequest, OpType, Trace

SECTOR_BYTES = 512


class SPCFormatError(ValueError):
    """A line of the trace file could not be parsed."""


def parse_spc_line(
    line: str,
    page_size: int = 2048,
    asu_stride_pages: int = 1 << 22,
) -> Optional[IORequest]:
    """Parse one SPC CSV line into a page-granular request.

    Returns None for blank/comment lines.  Raises :class:`SPCFormatError`
    for malformed lines.
    """
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 5:
        raise SPCFormatError(f"expected >=5 fields, got {len(parts)}: {line!r}")
    try:
        asu = int(parts[0])
        lba = int(parts[1])
        size = int(parts[2])
        opcode = parts[3]
        timestamp = float(parts[4])
    except ValueError as exc:
        raise SPCFormatError(f"bad field in line {line!r}") from exc
    if opcode.upper() == "R":
        op = OpType.READ
    elif opcode.upper() == "W":
        op = OpType.WRITE
    else:
        raise SPCFormatError(f"unknown opcode {opcode!r}")
    if size <= 0 or lba < 0 or asu < 0 or timestamp < 0:
        raise SPCFormatError(f"non-sensical values in line {line!r}")
    sectors_per_page = max(1, page_size // SECTOR_BYTES)
    first_page = lba // sectors_per_page
    last_sector = lba + max(1, (size + SECTOR_BYTES - 1) // SECTOR_BYTES) - 1
    last_page = last_sector // sectors_per_page
    lpn = asu * asu_stride_pages + first_page
    return IORequest(
        op=op,
        lpn=lpn,
        npages=last_page - first_page + 1,
        arrival_us=timestamp * 1e6,
    )


def _check_max_requests(max_requests: Optional[int]) -> None:
    if max_requests is not None and max_requests < 0:
        raise ValueError("max_requests must be non-negative")


def parse_spc(
    lines: Iterable[str],
    page_size: int = 2048,
    name: str = "spc",
    max_requests: Optional[int] = None,
    compact: bool = True,
) -> Trace:
    """Parse an iterable of SPC lines into a :class:`Trace`.

    Args:
        max_requests: Stop after this many requests (None: read all).
        compact: Remap the touched logical pages onto a dense 0..N space
            (preserving relative order) so the trace fits a simulated device
            without modelling the original volume's full capacity.
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
        req = parse_spc_line(line, page_size=page_size)
        if req is None:
            continue
        ops.append(1 if req.op is OpType.WRITE else 0)
        lpns.append(req.lpn)
        npages.append(req.npages)
        arrivals.append(req.arrival_us)
    trace = Trace.from_columns(ops, lpns, npages, arrivals, name=name)
    return _compact_columns(trace) if compact else trace


def parse_spc_file(
    path: str,
    page_size: int = 2048,
    name: Optional[str] = None,
    max_requests: Optional[int] = None,
    compact: bool = True,
) -> Trace:
    """Parse an SPC trace file from disk (binary-cached per content/params)."""
    def build() -> Trace:
        with open(path) as f:  # noqa: PTH123 - plain file handling is fine
            return parse_spc(
                f, page_size=page_size, name=name or path,
                max_requests=max_requests, compact=compact,
            )

    key = trace_cache.file_key(
        "spc-file", path,
        page_size=page_size, max_requests=max_requests, compact=compact,
    )
    trace = trace_cache.fetch(key, build)
    trace.name = name or path
    return trace


def _compact_columns(trace: Trace) -> Trace:
    """Remap sparse logical pages onto a dense address space.

    Pages are assigned dense addresses in first-touch order, which preserves
    overwrite/invalidation behaviour exactly.  Requests whose pages are no
    longer contiguous after remapping are split into contiguous runs.
    """
    page_of: dict = {}
    next_free = 0
    src_arrivals = trace.arrivals
    out_ops = array("b")
    out_lpns = array("q")
    out_npages = array("q")
    out_arrivals = array("d") if src_arrivals is not None else None
    for i, (op, lpn, npages) in enumerate(
        zip(trace.ops, trace.lpns, trace.npages)
    ):
        mapped = []
        for page in range(lpn, lpn + npages):
            if page not in page_of:
                page_of[page] = next_free
                next_free += 1
            mapped.append(page_of[page])
        run_start = mapped[0]
        run_len = 1
        for m in mapped[1:]:
            if m == run_start + run_len:
                run_len += 1
            else:
                out_ops.append(op)
                out_lpns.append(run_start)
                out_npages.append(run_len)
                if out_arrivals is not None:
                    out_arrivals.append(src_arrivals[i])
                run_start, run_len = m, 1
        out_ops.append(op)
        out_lpns.append(run_start)
        out_npages.append(run_len)
        if out_arrivals is not None:
            out_arrivals.append(src_arrivals[i])
    return Trace.from_columns(out_ops, out_lpns, out_npages, out_arrivals,
                              name=trace.name)
