#!/usr/bin/env python3
"""perfbench - wall-clock throughput harness with regression gating.

Measures *simulator* speed (host page-operations replayed per second of
wall-clock, warm-up included) for a fixed suite of cells:

* **micro** - the pure page-mapped scheme ("ideal") replaying uniform
  random single-page writes: pure mapping-table + flash-array overhead,
  no merge logic, so it isolates the engine's per-op cost.
* **macro** - LazyFTL and DFTL replaying the synthetic Financial1-like
  OLTP trace with steady-state preconditioning: the headline workload,
  dominated by GC/translation traffic like the E3/E4 experiments.
* **batch** - read-heavy/high-locality hot-cold workloads on the ideal
  and LazyFTL schemes: long no-slow-event stretches, so these cells
  expose the epoch-segmented batch-replay kernels
  (:mod:`repro.perf.batch`) that the GC-bound macros largely hide.
* **trace-pipeline** - the workload-ingest path by stage: ``parse-cold``
  (text tokenisation, cache disabled), ``parse-cached`` (binary-cache
  hit for the same file), and ``replay`` (the bare columnar replay loop
  on a pre-built device, no setup or warm-up in the timed region).
  These cells report *requests*/sec for the parse pair and page-ops/sec
  for replay; the recorded ``trace_pipeline.cached_vs_cold`` ratio is
  the headline cache win.

Each cell runs ``--repeat`` times (default 3) and keeps the *best*
throughput, which is the standard way to suppress scheduler noise on a
shared box.

Results land in ``BENCH_pr9.json`` at the repo root:

* ``--record before|after`` stores this run under that section (keyed by
  suite: ``full`` or ``smoke``) and refreshes the ``speedup`` block when
  both sections exist;
* ``--check`` compares this run against the committed ``gate`` section
  (typical-conditions medians from ``--calibrate-gate``; falls back to
  the ``after`` speedup record when absent) and exits 1 when any cell
  regresses more than ``[tool.perfbench] max_regression_pct``
  (pyproject.toml, default 15).  Baselines are first scaled by the
  current machine-regime factor (see :func:`_canary_score`), clamped
  to <= 1.0, so a box-wide slow regime does not read as an engine
  regression while a fast regime never loosens the gate; cells that
  still fail are re-measured in up to two fresh retry rounds (failing
  cells only, new canary bracket each round) so a sub-second cell that
  landed in one slow burst is not a verdict - only a cell slow in
  every round is;
  ``trace:*`` cells use the wider ``max_regression_pct_trace`` (default
  40) because their timed region is filesystem-bound and swings far more
  run-to-run than the compute cells; ``batch:*`` cells use
  ``max_regression_pct_batch`` (default 20) because their short epochs
  make them the noisiest compute cells;
* ``--replay-mode auto|scalar`` forces the replay path for the
  whole suite (paired before/after measurements of the batch engine);
* ``--profile N`` additionally runs each engine cell once under cProfile
  and stores the top-N self-time functions in the BENCH file (ranked by
  cumulative time the list was only ever the wrapper frames);
* ``--smoke`` shrinks the workload so the whole suite runs in a couple
  of seconds - this is what the ``tools/check_all.py`` gate executes.

Run:  PYTHONPATH=src python benchmarks/perfbench.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from dataclasses import replace

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.sim.runner import DeviceSpec, run_scheme  # noqa: E402
from repro.traces import cache as trace_cache  # noqa: E402
from repro.traces.financial import financial1  # noqa: E402
from repro.traces.io import load_trace, save_trace  # noqa: E402
from repro.traces.model import merge_traces  # noqa: E402
from repro.traces.synthetic import (  # noqa: E402
    hot_cold, uniform_random, warmup_fill,
)

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

BENCH_PATH = _REPO_ROOT / "BENCH_pr9.json"
DEFAULT_MAX_REGRESSION_PCT = 15.0
DEFAULT_TRACE_MAX_REGRESSION_PCT = 40.0
DEFAULT_BATCH_MAX_REGRESSION_PCT = 20.0


def regression_thresholds() -> tuple:
    """(general, trace:*, batch:*) thresholds from ``[tool.perfbench]``.

    The trace-pipeline cells time open()/read()/stat() against a real
    filesystem, so their run-to-run spread dwarfs the compute cells';
    they get their own (wider) budget instead of loosening the gate on
    the engine cells.  The batch cells replay long vectorized epochs, so
    a few rescheduled epoch boundaries swing them more than the scalar
    cells - they also get a slightly wider budget.
    """
    pyproject = _REPO_ROOT / "pyproject.toml"
    section = {}
    if tomllib is not None and pyproject.is_file():
        with open(pyproject, "rb") as stream:
            data = tomllib.load(stream)
        section = data.get("tool", {}).get("perfbench", {})
    return (
        float(section.get("max_regression_pct",
                          DEFAULT_MAX_REGRESSION_PCT)),
        float(section.get("max_regression_pct_trace",
                          DEFAULT_TRACE_MAX_REGRESSION_PCT)),
        float(section.get("max_regression_pct_batch",
                          DEFAULT_BATCH_MAX_REGRESSION_PCT)),
    )


def _steady_warmup(footprint: int):
    """The exact warm-up ``run_scheme(precondition="steady")`` builds.

    Built explicitly here so its page operations count toward the
    measured throughput (the warm-up replays through the same engine).
    """
    warmup = warmup_fill(footprint)
    overwrites = uniform_random(
        int(footprint * 0.7), footprint, write_ratio=1.0, seed=987,
        name="steady-warmup",
    )
    return merge_traces([warmup, overwrites], name="warmup")


def build_cells(smoke: bool):
    """The fixed measurement cells: (key, scheme, trace, warmup, device).

    ``macro:LazyFTL:4ch`` replays the macro workload on a 4-channel
    device: wall-clock throughput is *lower* there (the overlap
    bookkeeping costs host cycles), so the cell exists to track that
    overhead, while the *simulated* speedup the channels buy is
    certified separately by :func:`run_parallel_probe`.
    """
    if smoke:
        device = DeviceSpec(
            num_blocks=96, pages_per_block=16, page_size=512,
            logical_fraction=0.7,
        )
        n_micro, n_macro = 4000, 2500
    else:
        device = DeviceSpec(
            num_blocks=128, pages_per_block=32, page_size=512,
            logical_fraction=0.8,
        )
        n_micro, n_macro = 40000, 25000
    footprint = device.logical_pages
    micro_trace = uniform_random(
        n_micro, footprint, write_ratio=1.0, seed=101, name="uniform-writes",
    )
    macro_trace = financial1(n_macro, footprint, seed=202)
    # Read-heavy + high-locality: few writes, so GC and conversions are
    # rare and the no-slow-event epochs the batch engine vectorizes run
    # long.  These are the cells the batch kernels were built for.
    batch_trace = hot_cold(
        n_micro, footprint, write_ratio=0.1, hot_fraction=0.2,
        hot_probability=0.9, seed=303, name="hot-reads",
    )
    fill = warmup_fill(footprint)
    steady = _steady_warmup(footprint)
    device_4ch = replace(device, channels=4)
    return [
        ("micro:ideal", "ideal", micro_trace, fill, device),
        ("macro:LazyFTL", "LazyFTL", macro_trace, steady, device),
        ("macro:DFTL", "DFTL", macro_trace, steady, device),
        ("macro:LazyFTL:4ch", "LazyFTL", macro_trace, steady, device_4ch),
        ("batch:readheavy", "ideal", batch_trace, fill, device),
        ("batch:LazyFTL", "LazyFTL", batch_trace, fill, device),
    ]


def _profile_cell(run, top_n: int) -> list:
    """One cProfile'd run of a cell -> top-N self-time entries."""
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    entries = []
    # getstats() rows: inlinetime is self time, totaltime is cumulative.
    rows = sorted(
        profiler.getstats(),
        key=lambda row: row.inlinetime, reverse=True,
    )
    for row in rows:
        if len(entries) >= top_n:
            break
        code = row.code
        if isinstance(code, str):
            func = code
        else:
            func = (f"{pathlib.Path(code.co_filename).name}:"
                    f"{code.co_firstlineno}:{code.co_name}")
        entries.append({
            "func": func,
            "ncalls": row.callcount,
            "tottime": round(row.inlinetime, 4),
            "cumtime": round(row.totaltime, 4),
        })
    return entries


def run_suite(smoke: bool, repeats: int, replay_mode: str = None,
              profile_top: int = 0, only: set = None) -> tuple:
    """Run every cell; returns ``(cells, profiles)``.

    ``cells`` maps ``key -> {"ops_per_sec", ...}``; ``profiles`` maps
    ``key -> top-N cProfile entries`` (empty without ``--profile``).
    ``only`` restricts the run to the named cells (the gate's retry
    rounds re-measure just the cells that failed).
    """
    results = {}
    profiles = {}
    for key, scheme, trace, warmup, device in build_cells(smoke):
        if only is not None and key not in only:
            continue
        total_ops = warmup.page_ops + trace.page_ops
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            run_scheme(scheme, trace, device=device, warmup=warmup,
                       replay_mode=replay_mode)
            elapsed = time.perf_counter() - start
            best = max(best, total_ops / elapsed)
        results[key] = {
            "ops_per_sec": round(best, 1),
            "page_ops": total_ops,
            "repeats": repeats,
        }
        print(f"{key:16s} {best:10.0f} ops/s  ({total_ops} page ops, "
              f"best of {repeats})")
        if profile_top > 0:
            profiles[key] = _profile_cell(
                lambda: run_scheme(scheme, trace, device=device,
                                   warmup=warmup, replay_mode=replay_mode),
                profile_top,
            )
    if only is None or any(key.startswith("trace:") for key in only):
        trace_cells = run_trace_pipeline(smoke, repeats, replay_mode)
        if only is not None:
            trace_cells = {k: v for k, v in trace_cells.items()
                           if k in only}
        results.update(trace_cells)
    return results, profiles


def run_trace_pipeline(smoke: bool, repeats: int,
                       replay_mode: str = None) -> dict:
    """The trace-pipeline micros: parse-cold, parse-cached, replay-only.

    Uses the largest trace the suite touches (the macro Financial1-like
    workload) serialised to the text format, so the parse pair measures
    the exact file a user would replay.  The process cache configuration
    is restored afterwards regardless of outcome.
    """
    from repro.sim.factory import standard_setup
    from repro.sim.simulator import Simulator

    _, _, macro_trace, _, device = build_cells(smoke)[-1]
    n_requests = len(macro_trace)
    results = {}
    with tempfile.TemporaryDirectory(prefix="perfbench_trace_") as tmp:
        tmp_path = pathlib.Path(tmp)
        trace_file = str(tmp_path / "macro.trace")
        save_trace(macro_trace, trace_file)
        try:
            # parse-cold: text tokenisation only, cache off.
            trace_cache.configure(enabled=False)
            best = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                load_trace(trace_file)
                best = max(best,
                           n_requests / (time.perf_counter() - start))
            results["trace:parse-cold"] = {
                "ops_per_sec": round(best, 1),
                "page_ops": n_requests,
                "repeats": repeats,
            }
            # parse-cached: binary-cache hit for the same file.
            trace_cache.configure(tmp_path / "cache")
            load_trace(trace_file)  # prime
            best = 0.0
            for _ in range(repeats):
                start = time.perf_counter()
                load_trace(trace_file)
                best = max(best,
                           n_requests / (time.perf_counter() - start))
            results["trace:parse-cached"] = {
                "ops_per_sec": round(best, 1),
                "page_ops": n_requests,
                "repeats": repeats,
            }
        finally:
            trace_cache.configure()  # back to the environment default
    # replay-only: the bare columnar replay loop on the ideal scheme -
    # device construction and warm-up stay outside the timed region.
    page_ops = macro_trace.page_ops
    best = 0.0
    for _ in range(repeats):
        _, ftl, _ = standard_setup(
            "ideal",
            num_blocks=device.num_blocks,
            pages_per_block=device.pages_per_block,
            page_size=device.page_size,
            logical_fraction=device.logical_fraction,
            timing=device.timing,
        )
        simulator = Simulator(ftl, replay_mode=replay_mode)
        simulator.warm_up(warmup_fill(device.logical_pages))
        start = time.perf_counter()
        simulator.run(macro_trace, reset_counters=False)
        best = max(best, page_ops / (time.perf_counter() - start))
    results["trace:replay"] = {
        "ops_per_sec": round(best, 1),
        "page_ops": page_ops,
        "repeats": repeats,
    }
    for key in ("trace:parse-cold", "trace:parse-cached", "trace:replay"):
        cell = results[key]
        unit = "req/s" if "parse" in key else "ops/s"
        print(f"{key:18s} {cell['ops_per_sec']:12.0f} {unit}  "
              f"(best of {repeats})")
    return results


#: Minimum fraction of service latency the decomposition must attribute
#: to a named cause bucket (the rest is the explicit ``unattributed``).
MIN_ATTRIBUTED_FRACTION = 0.99


def run_latency_probe(smoke: bool) -> dict:
    """Traced LazyFTL macro run -> compact latency-decomposition summary.

    Deliberately *not* one of the timed cells: the throughput cells run
    detached (no tracer) so the regression gate keeps certifying the
    zero-overhead-when-detached contract, while this probe certifies the
    observability contract - per-op cause decomposition sums to the op
    latency and >= :data:`MIN_ATTRIBUTED_FRACTION` of service time is
    attributed to a named cause.  The summary is embedded in the BENCH
    file under ``latency`` so the perf trajectory carries tail data.
    """
    from repro.obs import OpLatencyRecorder, Tracer

    key, scheme, trace, warmup, device = build_cells(smoke)[1]
    assert key == "macro:LazyFTL"
    recorder = OpLatencyRecorder()
    run_scheme(scheme, trace, device=device, warmup=warmup,
               tracer=Tracer(latency=recorder))
    summary = recorder.scheme_summary(scheme)
    classes = {}
    for op_class, entry in summary["classes"].items():
        classes[op_class] = {
            "count": entry["count"],
            "p50_us": round(entry["p50_us"], 3),
            "p99_us": round(entry["p99_us"], 3),
            "p999_us": round(entry["p999_us"], 3),
            "attributed_fraction": round(
                entry["attributed_fraction"], 6
            ),
        }
    probe = {
        "scheme": scheme,
        "classes": classes,
        "invariant": summary["invariant"],
    }
    overall = classes["overall"]
    print(f"latency probe ({scheme}): p99 {overall['p99_us']:.0f} us, "
          f"p999 {overall['p999_us']:.0f} us, "
          f"{overall['attributed_fraction'] * 100:.2f}% attributed, "
          f"{probe['invariant']['violations']} invariant violation(s)")
    return probe


def check_latency_probe(probe: dict) -> int:
    """Fail (exit 1) on decomposition drift or weak attribution."""
    failed = False
    if probe["invariant"]["violations"]:
        print(f"latency probe: {probe['invariant']['violations']} "
              "decomposition invariant violation(s) - ops observed more "
              "flash time than they were charged")
        failed = True
    for op_class, entry in sorted(probe["classes"].items()):
        if entry["attributed_fraction"] < MIN_ATTRIBUTED_FRACTION:
            print(f"latency probe: {op_class} attribution "
                  f"{entry['attributed_fraction'] * 100:.2f}% < "
                  f"{MIN_ATTRIBUTED_FRACTION * 100:.0f}% floor")
            failed = True
    return 1 if failed else 0


#: Minimum *simulated* throughput gain the 4-channel macro cell must
#: show over the serial cell (device-busy microseconds, not wall-clock).
MIN_PARALLEL_SPEEDUP = 1.5


def run_parallel_probe(smoke: bool) -> dict:
    """Certify what the 4-channel device model actually buys.

    Replays the macro workload twice - serial and 4-channel - and
    compares ``device_busy_us`` (the sum of per-op service makespans,
    which *is* simulated time under the closed-loop model).  The
    4-channel run is traced so the probe simultaneously certifies that
    overlap timing keeps the latency decomposition exact: channel waits
    are reported separately and never leak into unattributed time.
    Both runs are deterministic, so the speedup is noise-free.
    """
    from repro.obs import OpLatencyRecorder, Tracer

    cells = {key: (scheme, trace, warmup, device)
             for key, scheme, trace, warmup, device in build_cells(smoke)}
    scheme, trace, warmup, serial_device = cells["macro:LazyFTL"]
    _, _, _, par_device = cells["macro:LazyFTL:4ch"]
    serial = run_scheme(scheme, trace, device=serial_device, warmup=warmup)
    recorder = OpLatencyRecorder()
    parallel = run_scheme(scheme, trace, device=par_device, warmup=warmup,
                          tracer=Tracer(latency=recorder))
    speedup = serial.device_busy_us / parallel.device_busy_us
    summary = recorder.scheme_summary(scheme)
    overall = summary["classes"]["overall"]
    probe = {
        "scheme": scheme,
        "channels": par_device.channels,
        "busy_us_serial": round(serial.device_busy_us, 1),
        "busy_us_parallel": round(parallel.device_busy_us, 1),
        "simulated_speedup": round(speedup, 3),
        "attributed_fraction": round(overall["attributed_fraction"], 6),
        "violations": summary["invariant"]["violations"],
        "channel_wait": summary["channel_wait"],
    }
    print(f"parallel probe ({scheme}, {par_device.channels}ch): "
          f"simulated speedup {speedup:.3f}x, "
          f"{overall['attributed_fraction'] * 100:.2f}% attributed, "
          f"{probe['violations']} invariant violation(s)")
    return probe


def check_parallel_probe(probe: dict) -> int:
    """Fail (exit 1) when channels stop paying or the decomposition
    drifts under overlap timing."""
    failed = False
    if probe["simulated_speedup"] < MIN_PARALLEL_SPEEDUP:
        print(f"parallel probe: simulated speedup "
              f"{probe['simulated_speedup']:.3f}x < "
              f"{MIN_PARALLEL_SPEEDUP}x floor")
        failed = True
    if probe["attributed_fraction"] < MIN_ATTRIBUTED_FRACTION:
        print(f"parallel probe: attribution "
              f"{probe['attributed_fraction'] * 100:.2f}% < "
              f"{MIN_ATTRIBUTED_FRACTION * 100:.0f}% floor")
        failed = True
    if probe["violations"]:
        print(f"parallel probe: {probe['violations']} decomposition "
              "invariant violation(s) under overlap timing")
        failed = True
    return 1 if failed else 0


class _CanaryObj:
    __slots__ = ("a", "b", "c")


def _canary_score(repeats: int = 5) -> float:
    """Machine-speed canary: iterations/s of a fixed pure-Python loop.

    The shared box drifts between sustained speed regimes that move
    *every* cell by 30-40% over minutes - far past the regression
    thresholds.  This loop measures only the current regime: it touches
    no simulator code, so its ratio against the recorded score
    separates "the machine is slow right now" from "the engine got
    slower".  The workload is deliberately *allocation-heavy* (slotted
    objects, tuples, a growing-and-dropped list): the regimes hit
    allocator- and cache-bound code far harder than they hit a tight
    register loop, and the cells are allocator-bound - a cache-resident
    integer loop was measured to stay near full speed in regimes where
    every cell lost 40%.  Best-of is kept for the same reason the cells
    keep it.
    """
    iters = 30_000
    best = 0.0
    for _ in range(repeats):
        sink = []
        start = time.perf_counter()
        for i in range(iters):
            obj = _CanaryObj()
            obj.a = i
            obj.b = i & 7
            obj.c = (i, i & 3)
            sink.append(obj)
            if len(sink) >= 2048:
                sink = []
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            best = max(best, iters / elapsed)
    return best


def _macro_aggregate(cells: dict) -> float:
    """Total macro throughput: sum(ops) / sum(best-run seconds)."""
    ops = sec = 0.0
    for key, cell in cells.items():
        if key.startswith("macro:"):
            ops += cell["page_ops"]
            sec += cell["page_ops"] / cell["ops_per_sec"]
    return ops / sec if sec else 0.0


def _load_bench() -> dict:
    if BENCH_PATH.is_file():
        with open(BENCH_PATH, encoding="utf-8") as stream:
            return json.load(stream)
    return {"schema": 1}


def record(section: str, suite: str, cells: dict,
           probe: dict = None, profiles: dict = None,
           canary: float = None, parallel: dict = None) -> None:
    data = _load_bench()
    data.setdefault(section, {})[suite] = cells
    if section == "after":
        score = canary if canary is not None else _canary_score()
        data.setdefault("canary", {})[suite] = round(score)
    if probe is not None:
        data.setdefault("latency", {})[suite] = probe
    if parallel is not None:
        data.setdefault("parallel", {})[suite] = parallel
    if profiles:
        data.setdefault("profile", {})[suite] = profiles
    before = data.get("before", {}).get(suite)
    after = data.get("after", {}).get(suite)
    if before and after:
        speedup = {
            key: round(
                after[key]["ops_per_sec"] / before[key]["ops_per_sec"], 3
            )
            for key in sorted(before)
            if key in after
        }
        speedup["macro"] = round(
            _macro_aggregate(after) / _macro_aggregate(before), 3
        )
        data.setdefault("speedup", {})[suite] = speedup
    cold = cells.get("trace:parse-cold")
    cached = cells.get("trace:parse-cached")
    if cold and cached:
        data.setdefault("trace_pipeline", {})[suite] = {
            "cached_vs_cold": round(
                cached["ops_per_sec"] / cold["ops_per_sec"], 2
            ),
        }
    with open(BENCH_PATH, "w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"recorded {suite} suite under '{section}' in {BENCH_PATH.name}")


def calibrate_gate(smoke: bool, rounds: int, repeats: int,
                   replay_mode: str = None) -> None:
    """Record the regression gate's typical-conditions baselines.

    The ``before``/``after`` sections exist to report *speedups*, so
    they keep best-of-fast-regime numbers from the paired recording -
    on this box those sit ~1.6x above what an ordinary check run
    measures, which no common-mode canary correction can bridge.  The
    gate therefore compares against its own ``gate`` section: the
    per-cell *median* across several rounds interleaved with canary
    samples, i.e. what a typical run of this suite actually achieves,
    with the median canary capturing the regime it was measured in.
    """
    import statistics

    suite = "smoke" if smoke else "full"
    per_cell = {}
    canaries = []
    for round_no in range(rounds):
        canaries.append(_canary_score())
        cells, _ = run_suite(smoke, repeats, replay_mode)
        for key, cell in cells.items():
            per_cell.setdefault(key, []).append(cell["ops_per_sec"])
        print(f"calibration round {round_no + 1}/{rounds} done")
        time.sleep(2.0)
    data = _load_bench()
    data.setdefault("gate", {})[suite] = {
        "canary": round(statistics.median(canaries)),
        "cells": {key: round(statistics.median(values), 1)
                  for key, values in sorted(per_cell.items())},
        "rounds": rounds,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as stream:
        json.dump(data, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"gate baselines calibrated ({rounds} round(s), {suite} suite) "
          f"in {BENCH_PATH.name}")


def check(suite: str, cells: dict, canary_now: float = None) -> int:
    """Fail (exit 1) when any cell regresses past the threshold.

    Baselines are first scaled by the *regime factor*: the current
    :func:`_canary_score` over the one recorded with the baseline,
    clamped to at most 1.0.  On a slow machine regime every baseline
    shrinks proportionally (a uniform 35% system slowdown stops reading
    as 35% of "regression"); on a fast regime the clamp keeps the gate
    at full strength - the factor only ever forgives the machine, never
    the engine.  ``canary_now`` lets the caller supply a score sampled
    while the cells were actually running (see :func:`main`, which
    brackets the suite and passes the minimum - throttling after a
    sustained load like the pytest stage decays within seconds, so a
    canary taken only *after* the cells understates the regime they
    ran in).
    """
    failing = check_cells(suite, cells, canary_now)
    return 1 if failing else 0


def check_cells(suite: str, cells: dict, canary_now: float = None) -> list:
    """One gate pass: print per-cell verdicts, return the failing keys.

    A non-empty return is not final - :func:`main` re-measures just the
    failing cells in fresh retry rounds (new canary bracket each time),
    because on this box a single best-of-3 of a sub-second cell can
    land entirely inside a slow burst that the common-mode canary
    scaling cannot see.  Only a cell that fails every round is a
    regression.
    """
    data = _load_bench()
    gate = data.get("gate", {}).get(suite)
    if gate:
        baseline = {key: {"ops_per_sec": ops}
                    for key, ops in gate["cells"].items()}
        recorded_canary = gate.get("canary")
    else:
        baseline = data.get("after", {}).get(suite)
        recorded_canary = data.get("canary", {}).get(suite)
    if not baseline:
        print(f"perfbench: no committed '{suite}' baseline in "
              f"{BENCH_PATH.name}; record one with --record after "
              "or --calibrate-gate")
        return sorted(cells)
    scale = 1.0
    if recorded_canary:
        now = canary_now if canary_now is not None else _canary_score()
        scale = min(1.0, now / recorded_canary)
        print(f"regime scale {scale:.2f} (canary {now:.0f}/s vs "
              f"{recorded_canary:.0f}/s recorded)")
    general_pct, trace_pct, batch_pct = regression_thresholds()
    failing = []
    for key, cell in sorted(cells.items()):
        base = baseline.get(key)
        if base is None:
            print(f"{key}: NEW (no baseline)")
            continue
        if key.startswith("trace:"):
            threshold = trace_pct
        elif key.startswith("batch:"):
            threshold = batch_pct
        else:
            threshold = general_pct
        base_ops = base["ops_per_sec"] * scale
        delta_pct = 100.0 * (cell["ops_per_sec"] / base_ops - 1.0)
        verdict = "ok"
        if delta_pct < -threshold:
            verdict = f"REGRESSION (>{threshold:.0f}% slower)"
            failing.append(key)
        print(f"{key:16s} {cell['ops_per_sec']:10.0f} ops/s vs baseline "
              f"{base_ops:10.0f} ({delta_pct:+.1f}%) {verdict}")
    return failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (the check_all gate)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per cell; the best is kept (default 3)")
    parser.add_argument("--record", choices=("before", "after"),
                        help="store this run in BENCH_pr9.json")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed 'after' "
                             "baseline; exit 1 on regression")
    parser.add_argument("--replay-mode", choices=("auto", "scalar"),
                        default=None,
                        help="force the replay path for every cell "
                             "(default: the simulator's own default)")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="also run each engine cell once under "
                             "cProfile; store the top-N self-time "
                             "functions in the BENCH file on --record")
    parser.add_argument("--calibrate-gate", type=int, default=0,
                        metavar="ROUNDS",
                        help="record typical-conditions gate baselines: "
                             "the per-cell median over ROUNDS suite "
                             "rounds interleaved with canary samples "
                             "(the --check comparison point)")
    args = parser.parse_args(argv)

    if args.calibrate_gate > 0:
        calibrate_gate(args.smoke, args.calibrate_gate, args.repeat,
                       args.replay_mode)
        return 0

    suite = "smoke" if args.smoke else "full"
    mode = args.replay_mode or "default"
    print(f"perfbench: {suite} suite, best of {args.repeat}, "
          f"replay mode {mode}")
    # Bracket the timed cells with canary samples: the score taken
    # *before* the suite sees the same post-load throttle the first
    # cells run under (check() uses the minimum of the pair).
    canary_before = _canary_score() if args.check else None
    cells, profiles = run_suite(args.smoke, args.repeat,
                                replay_mode=args.replay_mode,
                                profile_top=args.profile)
    print(f"macro aggregate: {_macro_aggregate(cells):.0f} ops/s")
    probe = None
    parallel_probe = None
    if args.record or args.check:
        # Untimed instrumented runs: certify the latency-decomposition
        # and channel-overlap contracts without polluting the detached
        # throughput cells.
        probe = run_latency_probe(args.smoke)
        parallel_probe = run_parallel_probe(args.smoke)
    status = 0
    if args.record:
        record(args.record, suite, cells, probe, profiles,
               parallel=parallel_probe)
    if args.check:
        canary_now = min(canary_before, _canary_score())
        failing = check_cells(suite, cells, canary_now)
        for attempt in range(2):
            if not failing:
                break
            print(f"retrying {len(failing)} failing cell(s) "
                  f"(round {attempt + 1}/2): {', '.join(failing)}")
            bracket = _canary_score()
            recells, _ = run_suite(args.smoke, args.repeat,
                                   replay_mode=args.replay_mode,
                                   only=set(failing))
            bracket = min(bracket, _canary_score())
            failing = check_cells(suite, recells, bracket)
        status = 1 if failing else 0
        status = check_latency_probe(probe) or status
        status = check_parallel_probe(parallel_probe) or status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
