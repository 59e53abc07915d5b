"""Validate observability artifacts: JSONL event traces and snapshots.

For a JSONL trace written by ``repro compare --trace-out`` or a ring
dump from ``repro report --events-out``, checks every line:

* each record parses as JSON and round-trips through
  :class:`repro.obs.TraceEvent` (unknown ``type``/``cause`` values fail);
* metadata records (a ``meta`` key, e.g. the ring sink's completeness
  header) carry well-formed non-negative counters;
* timestamps are non-negative and non-decreasing per scheme;
* ``dur_us`` is non-negative, and present on every flash-op record;
* GCStart/GCEnd and MergeStart/MergeEnd balance per scheme;
* per-event cause is consistent with the open spans (innermost wins): a
  flash op tagged ``gc``/``merge`` needs that span open, and a flash op
  tagged ``host`` must not appear inside an open GC or merge span.

A ``repro report`` snapshot (a single JSON object with ``schema:
"repro-report/1"``) is detected automatically and validated structurally
via :func:`repro.obs.report.validate_snapshot` (required sections,
monotone quantiles, attribution fractions in range, increasing series
windows).

Exit status is 0 when the artifact is clean, 1 when any violation is
found (each violation is printed with its line number), 2 on usage
errors - so the script slots into CI after any trace-producing job.

Run:  python tools/check_trace_schema.py path/to/trace.jsonl
      python tools/check_trace_schema.py path/to/snapshot.json
"""

from __future__ import annotations

import json
import pathlib
import sys

# Stdlib-only bootstrap: make src/ importable no matter where the script
# is invoked from.
sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.obs import FLASH_OP_TYPES, SPAN_PAIRS, TraceEvent  # noqa: E402
from repro.obs.events import Cause, EventType  # noqa: E402


def check_trace(path: str, limit: int = 20):
    """Yield ``(lineno, message)`` violations, at most ``limit``."""
    last_ts = {}     # scheme -> last timestamp seen
    span_depth = {}  # (scheme, start type) -> open spans
    end_to_start = {end: start for start, end in SPAN_PAIRS.items()}
    emitted = 0
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            if emitted >= limit:
                yield lineno, f"... stopping after {limit} violations"
                return
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if isinstance(record, dict) and "meta" in record:
                    for message in _check_meta(record):
                        yield lineno, message
                        emitted += 1
                    continue
                event = TraceEvent.from_record(record)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                yield lineno, f"unparseable record: {exc}"
                emitted += 1
                continue
            if event.ts < 0:
                yield lineno, f"negative timestamp {event.ts}"
                emitted += 1
            if event.ts < last_ts.get(event.scheme, 0.0):
                yield lineno, (
                    f"timestamp went backwards for {event.scheme}: "
                    f"{event.ts} < {last_ts[event.scheme]}"
                )
                emitted += 1
            last_ts[event.scheme] = max(
                last_ts.get(event.scheme, 0.0), event.ts
            )
            if event.dur_us < 0:
                yield lineno, f"negative dur_us {event.dur_us}"
                emitted += 1
            if event.type in FLASH_OP_TYPES and "dur_us" not in record:
                yield lineno, f"flash op {event.type.value} without dur_us"
                emitted += 1
            if event.type in FLASH_OP_TYPES:
                # Cause-stack consistency (innermost activity wins).  Only
                # GC and merge spans emit start/end events, so those are
                # the reconstructable part of the stack: an op tagged
                # gc/merge needs its span open, and an op tagged host
                # cannot be issued from inside either span.
                gc_open = span_depth.get(
                    (event.scheme, EventType.GC_START), 0)
                merge_open = span_depth.get(
                    (event.scheme, EventType.MERGE_START), 0)
                if event.cause is Cause.GC and not gc_open:
                    yield lineno, (
                        f"{event.type.value} attributed to gc outside any "
                        f"GC span ({event.scheme})"
                    )
                    emitted += 1
                elif event.cause is Cause.MERGE and not merge_open:
                    yield lineno, (
                        f"{event.type.value} attributed to merge outside "
                        f"any merge span ({event.scheme})"
                    )
                    emitted += 1
                elif event.cause is Cause.HOST and (gc_open or merge_open):
                    span = "GC" if gc_open else "merge"
                    yield lineno, (
                        f"{event.type.value} attributed to host inside an "
                        f"open {span} span ({event.scheme}) - the cause "
                        "stack leaked"
                    )
                    emitted += 1
            if event.type in SPAN_PAIRS:
                key = (event.scheme, event.type)
                span_depth[key] = span_depth.get(key, 0) + 1
            elif event.type in end_to_start:
                key = (event.scheme, end_to_start[event.type])
                depth = span_depth.get(key, 0)
                if depth == 0:
                    yield lineno, (
                        f"{event.type.value} without a matching start "
                        f"({event.scheme})"
                    )
                    emitted += 1
                else:
                    span_depth[key] = depth - 1
    for (scheme, start_type), depth in sorted(span_depth.items()):
        if depth:
            yield 0, (
                f"{depth} unclosed {start_type.value} span(s) for {scheme}"
            )


def _check_meta(record):
    """Violation messages for one metadata record (empty when clean)."""
    kind = record.get("meta")
    if not isinstance(kind, str):
        yield f"meta record with non-string kind {kind!r}"
        return
    if kind == "ring":
        for key in ("capacity", "events_seen", "dropped"):
            value = record.get(key)
            if not isinstance(value, int) or value < 0:
                yield (
                    f"ring meta record with bad {key!r}: {value!r} "
                    "(want a non-negative integer)"
                )
        seen = record.get("events_seen")
        dropped = record.get("dropped")
        if (isinstance(seen, int) and isinstance(dropped, int)
                and dropped > seen):
            yield (
                f"ring meta record claims {dropped} dropped out of only "
                f"{seen} seen"
            )


def sniff_snapshot(path: str):
    """Return the parsed snapshot if ``path`` holds one, else None.

    Snapshots are a single (pretty-printed) JSON object carrying
    ``schema: "repro-report/..."``; traces are JSONL.  A trace's first
    line never parses to the whole file, so whole-file parsing is an
    unambiguous discriminator.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if isinstance(document, dict) and str(
            document.get("schema", "")).startswith("repro-report/"):
        return document
    return None


def check_snapshot(snapshot):
    """Yield ``(0, message)`` violations for a report snapshot."""
    from repro.obs.report import validate_snapshot

    for message in validate_snapshot(snapshot):
        yield 0, message


def main(argv):
    if len(argv) != 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: {argv[0]} TRACE.jsonl|SNAPSHOT.json",
              file=sys.stderr)
        return 2
    path = argv[1]
    if not pathlib.Path(path).is_file():
        print(f"{path}: not a file", file=sys.stderr)
        return 2
    snapshot = sniff_snapshot(path)
    findings = (check_snapshot(snapshot) if snapshot is not None
                else check_trace(path))
    violations = 0
    for lineno, message in findings:
        where = f"line {lineno}" if lineno else (
            "snapshot" if snapshot is not None else "end of trace")
        print(f"{path}: {where}: {message}", file=sys.stderr)
        violations += 1
    if violations:
        return 1
    kind = "snapshot OK" if snapshot is not None else "OK"
    print(f"{path}: {kind}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
