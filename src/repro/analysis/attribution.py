"""Per-cause time attribution: turn a trace into "where did the time go".

Consumes the JSONL event stream written by
:class:`~repro.obs.sinks.JsonlSink` (``repro compare --trace-out``) and
decomposes each scheme's flash time by *cause* — host, gc, merge,
mapping, convert, recovery.  This is the analysis that corroborates the
paper's central claim from the inside: LazyFTL's write path shows **zero
merge time** (conversion and batched commits replace merges entirely),
while the log-block schemes spend most of their device time inside
full-merge storms.

The module is stream-shaped: :func:`read_trace` yields events lazily so
multi-million-event traces never need to fit in memory, and
:func:`attribute_trace` folds them into the same
:class:`~repro.obs.tally.RunTotals` the tracer keeps for live runs, so
offline and online attribution can never disagree.
"""

from __future__ import annotations

import json
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Union,
)

from ..obs.events import Cause, TraceEvent
from ..obs.tally import RunTotals

#: Column order of the attribution table: causes first (most interesting
#: left-most), then the structural counters.
ATTRIBUTION_HEADERS = [
    "scheme", "host_ms", "gc_ms", "merge_ms", "mapping_ms", "convert_ms",
    "recovery_ms", "total_ms", "merges", "converts", "gc_runs",
]

#: Cause order used by the table.
CAUSE_ORDER = [
    Cause.HOST, Cause.GC, Cause.MERGE, Cause.MAPPING, Cause.CONVERT,
    Cause.RECOVERY,
]


def read_trace(
    source: Union[str, TextIO],
    on_meta: Optional[Callable[[Dict[str, object]], None]] = None,
) -> Iterator[TraceEvent]:
    """Stream :class:`TraceEvent` objects from a JSONL trace.

    Accepts a path or an open text stream; blank lines are skipped, and
    malformed lines raise ``ValueError`` naming the offending line number
    (a trace with undecodable records should fail loudly, not be silently
    truncated).  Records carrying a ``meta`` key (e.g. the ring sink's
    completeness header) are not events: they are passed to ``on_meta``
    when given, silently skipped otherwise.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as stream:
            yield from read_trace(stream, on_meta=on_meta)
        return
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if isinstance(record, dict) and "meta" in record:
                if on_meta is not None:
                    on_meta(record)
                continue
            yield TraceEvent.from_record(record)
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ValueError(f"bad trace record on line {lineno}: {exc}")


def attribute_trace(events: Iterable[TraceEvent]) -> RunTotals:
    """Fold a stream of events into per-scheme, per-cause flash time."""
    totals = RunTotals()
    for event in events:
        totals.emit(event)
    return totals


def attribution_rows(
    totals: RunTotals, schemes: Optional[Sequence[str]] = None
) -> List[List[object]]:
    """Table rows (matching :data:`ATTRIBUTION_HEADERS`) for each scheme."""
    rows: List[List[object]] = []
    for scheme in schemes if schemes is not None else totals.schemes():
        summary = totals.scheme_summary(scheme)
        if summary is None:
            continue
        by_cause = summary["time_by_cause_us"]
        row: List[object] = [scheme]
        for cause in CAUSE_ORDER:
            row.append(round(by_cause.get(cause.value, 0.0) / 1000.0, 2))
        row.append(round(summary["total_us"] / 1000.0, 2))
        row.extend([summary["merges"], summary["converts"],
                    summary["gc_runs"]])
        rows.append(row)
    return rows


def format_attribution(
    totals: RunTotals,
    schemes: Optional[Sequence[str]] = None,
    title: str = "flash time by cause",
) -> str:
    """Render the attribution table using the standard report formatter."""
    # Imported here: analysis must stay importable without sim (and this
    # keeps the analysis<->sim dependency one-directional at module load).
    from ..sim.report import format_table

    return format_table(
        ATTRIBUTION_HEADERS, attribution_rows(totals, schemes), title=title
    )
