"""Run reports: one artifact that makes a run's tail behaviour readable.

Glues the three observability layers into a single **snapshot** (a plain
JSON-serialisable dict):

* per-op-class latency decomposition from
  :class:`~repro.obs.latency.OpLatencyRecorder` (p50/p95/p99/p999 with
  per-cause buckets and the explicit ``unattributed`` remainder);
* windowed time-series from :class:`~repro.obs.series.SeriesCollector`;
* the run-level attribution and headline counters from the
  :class:`~repro.sim.simulator.SimulationResult`.

Snapshots are what ``repro report --json`` prints, what ``--snapshot``
saves and what ``tools/check_trace_schema.py`` validates in CI.
:func:`render_report` turns one into the terminal
dashboard (latency table, top-cause tail breakdown, sparklines) - it
works identically on a live run and on a reloaded snapshot.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Schema identifier every snapshot carries (bump on layout changes).
SNAPSHOT_SCHEMA = "repro-report/1"

#: Keys every per-op-class latency entry must carry.
CLASS_KEYS = ("count", "mean_us", "p50_us", "p95_us", "p99_us", "p999_us",
              "max_us", "by_cause_us", "unattributed_us",
              "attributed_fraction")

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Render a series as Unicode block characters (min-max scaled)."""
    if not values:
        return ""
    if len(values) > width:
        # Downsample by averaging equal chunks so spikes still register.
        chunk = len(values) / width
        values = [
            sum(values[int(i * chunk):max(int(i * chunk) + 1,
                                          int((i + 1) * chunk))])
            / max(1, int((i + 1) * chunk) - int(i * chunk))
            for i in range(width)
        ]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _SPARK_LEVELS[0] * len(values)
    return "".join(
        _SPARK_LEVELS[min(len(_SPARK_LEVELS) - 1,
                          int((v - low) / span * len(_SPARK_LEVELS)))]
        for v in values
    )


# ----------------------------------------------------------------------
# Snapshot construction
# ----------------------------------------------------------------------
def build_snapshot(
    result: Any,
    recorder: Any,
    series: Optional[Any] = None,
    events_dropped: int = 0,
    events_emitted: int = 0,
) -> Dict[str, Any]:
    """Assemble the machine-readable snapshot for one scheme's run.

    Args:
        result: The :class:`~repro.sim.simulator.SimulationResult`.
        recorder: The run's :class:`OpLatencyRecorder`.
        series: Optional :class:`SeriesCollector` (omitted -> no series
            section).
        events_dropped: Ring-sink drop count, when a ring was attached.
        events_emitted: Total events the tracer emitted.
    """
    scheme = result.scheme
    latency = recorder.scheme_summary(scheme) or {
        "classes": {}, "outside_us": {},
        "invariant": {"checked_ops": 0, "violations": 0,
                      "max_residual_us": 0.0},
    }
    responses = result.responses.summary()
    snapshot: Dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "scheme": scheme,
        "trace": result.trace_name,
        "requests": result.requests,
        "page_ops": result.page_ops,
        "device_busy_us": result.device_busy_us,
        "events_emitted": events_emitted,
        "events_dropped": events_dropped,
        "latency": latency,
        "response": responses,
        "attribution": result.attribution,
        "ftl": result.ftl_stats.as_dict(),
    }
    if series is not None:
        snapshot["series"] = series.snapshot(scheme)
    return snapshot


def save_snapshot(snapshot: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(snapshot, stream, indent=1, sort_keys=True)
        stream.write("\n")


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load and schema-check a saved snapshot (raises ValueError)."""
    with open(path, "r", encoding="utf-8") as stream:
        snapshot = json.load(stream)
    errors = validate_snapshot(snapshot)
    if errors:
        raise ValueError(
            f"{path}: not a valid {SNAPSHOT_SCHEMA} snapshot: "
            + "; ".join(errors[:4])
        )
    return snapshot


def validate_snapshot(snapshot: Any) -> List[str]:
    """Structural validation; returns human-readable problems (empty=ok)."""
    errors: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        errors.append(
            f"schema is {snapshot.get('schema')!r}, want {SNAPSHOT_SCHEMA!r}"
        )
    for key in ("scheme", "trace", "requests", "page_ops", "latency"):
        if key not in snapshot:
            errors.append(f"missing key {key!r}")
    latency = snapshot.get("latency")
    if not isinstance(latency, dict):
        errors.append("latency section is not an object")
        return errors
    classes = latency.get("classes", {})
    if not isinstance(classes, dict):
        errors.append("latency.classes is not an object")
        return errors
    for op_class, entry in classes.items():
        if not isinstance(entry, dict):
            errors.append(f"latency class {op_class!r} is not an object")
            continue
        for key in CLASS_KEYS:
            if key not in entry:
                errors.append(f"latency.{op_class} missing {key!r}")
        quantiles = [entry.get("p50_us", 0), entry.get("p95_us", 0),
                     entry.get("p99_us", 0), entry.get("p999_us", 0),
                     entry.get("max_us", 0)]
        if any(not isinstance(q, (int, float)) for q in quantiles):
            errors.append(f"latency.{op_class} quantiles not numeric")
        elif any(b < a - 1e-9 for a, b in zip(quantiles, quantiles[1:])):
            errors.append(
                f"latency.{op_class} quantiles not monotonic: {quantiles}"
            )
        fraction = entry.get("attributed_fraction")
        if isinstance(fraction, (int, float)) and not 0 <= fraction <= 1:
            errors.append(
                f"latency.{op_class}.attributed_fraction out of [0,1]: "
                f"{fraction}"
            )
        by_cause = entry.get("by_cause_us", {})
        if isinstance(by_cause, dict):
            for bucket, spent in by_cause.items():
                if not isinstance(spent, (int, float)) or spent < 0:
                    errors.append(
                        f"latency.{op_class}.by_cause_us[{bucket!r}] "
                        f"negative or non-numeric"
                    )
    invariant = latency.get("invariant")
    if not isinstance(invariant, dict) or "violations" not in invariant:
        errors.append("latency.invariant missing or malformed")
    series = snapshot.get("series")
    if series is not None:
        errors.extend(_validate_series(series))
    return errors


def _validate_series(series: Any) -> List[str]:
    errors: List[str] = []
    if not isinstance(series, dict):
        return ["series section is not an object"]
    for key in ("window_us", "windows_dropped", "windows"):
        if key not in series:
            errors.append(f"series missing {key!r}")
    windows = series.get("windows", [])
    if not isinstance(windows, list):
        return errors + ["series.windows is not a list"]
    last_index = None
    for i, window in enumerate(windows):
        if not isinstance(window, dict):
            errors.append(f"series.windows[{i}] is not an object")
            continue
        for key in ("window", "t_us", "host_ops", "ops_per_sec",
                    "stall_fractions"):
            if key not in window:
                errors.append(f"series.windows[{i}] missing {key!r}")
        index = window.get("window")
        if isinstance(index, int):
            if last_index is not None and index <= last_index:
                errors.append(
                    f"series.windows[{i}] index {index} not increasing"
                )
            last_index = index
    return errors


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: Any, nd: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.{nd}f}"
    return f"{value:,}"


def _top_cause(parts: Dict[str, float]) -> Tuple[str, float]:
    if not parts:
        return ("unattributed", 0.0)
    bucket = max(parts, key=lambda b: parts[b])
    total = sum(parts.values())
    return (bucket, parts[bucket] / total if total > 0 else 0.0)


def render_report(snapshot: Dict[str, Any]) -> str:
    """The terminal dashboard for one snapshot (live or reloaded)."""
    from ..sim.report import format_table

    lines: List[str] = []
    head = (
        f"{snapshot['scheme']} on {snapshot['trace']}: "
        f"{snapshot['requests']:,} requests, "
        f"{snapshot['page_ops']:,} page ops, "
        f"device busy {snapshot.get('device_busy_us', 0.0) / 1e6:,.2f} s "
        f"(simulated)"
    )
    lines.append(head)
    emitted = snapshot.get("events_emitted", 0)
    dropped = snapshot.get("events_dropped", 0)
    if emitted or dropped:
        drop_note = (f", {dropped:,} DROPPED by the ring sink"
                     if dropped else "")
        lines.append(f"events: {emitted:,} emitted{drop_note}")
    latency = snapshot.get("latency", {})
    classes = latency.get("classes", {})
    # --- latency table ------------------------------------------------
    order = [c for c in ("read", "write", "trim", "overall")
             if c in classes]
    rows = []
    for op_class in order:
        entry = classes[op_class]
        rows.append([
            op_class, entry["count"], entry["mean_us"], entry["p50_us"],
            entry["p95_us"], entry["p99_us"], entry["p999_us"],
            entry["max_us"],
            f"{entry['attributed_fraction'] * 100.0:.2f}%",
        ])
    if rows:
        lines.append("")
        lines.append(format_table(
            ["class", "count", "mean_us", "p50_us", "p95_us", "p99_us",
             "p999_us", "max_us", "attributed"],
            rows, title="service latency by op class",
        ))
    # --- cause decomposition -----------------------------------------
    overall = classes.get("overall")
    if overall:
        total = overall.get("total_us", 0.0) or sum(
            overall["by_cause_us"].values()
        ) + overall["unattributed_us"]
        rows = []
        causes = dict(overall["by_cause_us"])
        causes["unattributed"] = overall["unattributed_us"]
        for bucket, spent in sorted(causes.items(), key=lambda kv: -kv[1]):
            share = spent / total if total > 0 else 0.0
            rows.append([bucket, spent / 1e3, f"{share * 100.0:.2f}%"])
        queueing = overall.get("queueing_us", 0.0)
        if queueing:
            rows.append(["(queueing, on top)", queueing / 1e3, "-"])
        channel_wait = overall.get("channel_wait_us", 0.0)
        if channel_wait:
            rows.append(["(channel wait, absorbed)", channel_wait / 1e3,
                         "-"])
        lines.append("")
        lines.append(format_table(
            ["cause", "ms", "share of service time"], rows,
            title="where the time went",
        ))
        # --- tail breakdown ------------------------------------------
        slowest = overall.get("slowest", [])
        if slowest:
            rows = []
            for op in slowest[:8]:
                bucket, share = _top_cause(op.get("by_cause_us", {}))
                rows.append([
                    op["dur_us"], bucket, f"{share * 100.0:.1f}%",
                ])
            lines.append("")
            lines.append(format_table(
                ["slowest op (us)", "dominant cause", "share"], rows,
                title="tail breakdown: the slowest ops and who caused them",
            ))
    invariant = latency.get("invariant", {})
    if invariant:
        verdict = ("OK" if not invariant.get("violations")
                   else f"{invariant['violations']} VIOLATION(S)")
        lines.append(
            f"\ndecomposition invariant: {verdict} over "
            f"{invariant.get('checked_ops', 0):,} ops "
            f"(max residual {invariant.get('max_residual_us', 0.0):.3g} us)"
        )
    # --- FTL counters (older snapshots have none) ---------------------
    ftl = snapshot.get("ftl")
    if ftl:
        map_gc = ftl["map_gc_copies"]
        lines.append(
            f"\nFTL stats: {ftl['gc_runs']:,} GC passes, "
            f"{ftl['gc_page_copies']:,} GC page copies "
            f"({map_gc:,} of them translation pages); "
            f"{ftl['map_writes']:,} map page writes = "
            f"{ftl['map_writes'] - map_gc:,} commits + "
            f"{map_gc:,} GC re-copies; {ftl['map_reads']:,} map page reads"
        )
    # --- series sparklines -------------------------------------------
    series = snapshot.get("series")
    if series and series.get("windows"):
        windows = series["windows"]
        lines.append("")
        lines.append(
            f"time-series ({len(windows)} windows of "
            f"{series['window_us'] / 1e3:.0f} ms simulated time"
            + (f", {series['windows_dropped']} evicted" if
               series.get("windows_dropped") else "")
            + ")"
        )
        for label, key in (
            ("ops/s", "ops_per_sec"),
            ("WAF", "waf"),
            ("GC debt (pages)", "gc_debt_pages"),
            ("map hit rate", "map_hit_rate"),
            ("erase variance", "erase_variance"),
        ):
            values = [
                float(w.get(key) or 0.0) for w in windows
            ]
            if not any(values):
                continue
            lines.append(
                f"  {label:16s} {sparkline(values)}  "
                f"min {_fmt(min(values))}  max {_fmt(max(values))}"
            )
        gc_share = [
            float(w["stall_fractions"].get("gc", 0.0))
            + float(w["stall_fractions"].get("merge", 0.0))
            for w in windows
        ]
        if any(gc_share):
            lines.append(
                f"  {'GC+merge stall':16s} {sparkline(gc_share)}  "
                f"min {min(gc_share) * 100:.1f}%  "
                f"max {max(gc_share) * 100:.1f}%"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live collection
# ----------------------------------------------------------------------
def collect_report(
    scheme: str,
    trace: Any,
    device: Optional[Any] = None,
    precondition: Any = True,
    window_us: Optional[float] = None,
    ring_capacity: int = 0,
    sanitize: bool = False,
    **options: Any,
) -> Tuple[Dict[str, Any], Any, Any]:
    """Run one scheme fully instrumented and build its snapshot.

    Returns ``(snapshot, result, ring)``: ``ring_capacity > 0`` attaches
    a :class:`RingBufferSink` (for ``--events-out`` dumps), else ``ring``
    is None.  Imports the simulator lazily: obs stays importable below
    :mod:`repro.sim`.
    """
    from ..sim.runner import run_scheme
    from .latency import OpLatencyRecorder
    from .series import DEFAULT_WINDOW_US, SeriesCollector
    from .sinks import RingBufferSink
    from .tracer import Tracer

    recorder = OpLatencyRecorder()
    num_blocks = device.num_blocks if device is not None else None
    series = SeriesCollector(
        window_us=window_us if window_us else DEFAULT_WINDOW_US,
        num_blocks=num_blocks,
    )
    sinks: List[Any] = [series]
    ring = None
    if ring_capacity > 0:
        ring = RingBufferSink(capacity=ring_capacity)
        sinks.append(ring)
    tracer = Tracer(sinks=sinks, latency=recorder)
    result = run_scheme(
        scheme, trace, device=device, precondition=precondition,
        tracer=tracer, sanitize=sanitize, **options,
    )
    snapshot = build_snapshot(
        result, recorder, series=series,
        events_dropped=ring.dropped if ring is not None else 0,
        events_emitted=tracer.events_emitted,
    )
    return snapshot, result, ring
