"""The timed pass: end-to-end metrics with tracing off.

Per run: generate the traces once, then repeat
``standard_setup -> Simulator.warm_up -> gc.collect() -> timed
Simulator.run`` until the timed regions add up to ``--seconds`` (at
least ``Profile.min_repeats`` times).  Host times are taken at reference
speed (:mod:`.steady`: the shared host moves identical replays by up to 2x
for seconds or minutes at a time, and a canary sampled every 50 ms inside
the timed regions divides that out); replay speed and set-up time are the
medians over the repeats.  Simulated statistics must be bit-identical
across the repeats.  An untimed read-your-writes pass on the aged device
then checks outputs.

Closed loop, one client: every request is issued when the previous one
completes (``arrival_us`` is None on every generated trace).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.metrics import LatencyDistribution
from repro.sim.simulator import SimulationResult, Simulator
from repro.traces.model import Trace

from .spans import Span, SpanRecorder
from .workloads import Profile, Workload, build_device, warmup_traces

#: Simulated-response percentiles that must repeat exactly.
_PERCENTILES = (50.0, 95.0, 99.0, 99.9)

Builder = Callable[..., Tuple[Any, Any]]


@dataclass
class Outcome:
    """Everything one pass over one workload produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-repeat host samples behind the medians in ``metrics``, at
    #: reference speed and (``*_wall*``) as the wall clock saw them.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Named output checks; the run is correct only when all hold.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: ``"<ExceptionType>: message (file:line)"`` for everything caught
    #: at the harness boundary.
    errors: List[str] = field(default_factory=list)
    digest: Optional[Dict[str, Any]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def require(self, check: str, ok: bool) -> None:
        """Record one evaluation of a named check; it holds only if every
        evaluation did."""
        self.checks[check] = self.checks.get(check, True) and ok


def tail_mean(dist: LatencyDistribution, q: float) -> float:
    """Mean of the samples ranked beyond the nearest-rank q-percentile.

    Each sample is fetched through ``percentile`` at a mid-rank quantile
    (rank - 0.5), so float rounding can never land on a neighbouring
    rank.  With nothing beyond the percentile the maximum is returned.
    """
    n = dist.count
    first = max(1, math.ceil(q / 100.0 * n))
    if first >= n:
        return dist.max
    total = 0.0
    for rank in range(first + 1, n + 1):
        total += dist.percentile(100.0 * (rank - 0.5) / n)
    return total / (n - first)


def sim_digest(result: SimulationResult) -> Dict[str, Any]:
    """Every simulated statistic of a run, for exact comparison."""
    digest: Dict[str, Any] = {
        "requests": result.requests,
        "page_ops": result.page_ops,
        "device_busy_us": result.device_busy_us,
        "ram_bytes": result.ram_bytes,
        "flash": result.flash.as_dict(),
        "ftl": result.ftl_stats.as_dict(),
        "wear": dict(result.wear),
    }
    for label in ("overall", "reads", "writes"):
        dist = getattr(result.responses, label)
        digest[label] = {
            "count": dist.count, "total": dist.total,
            "min": dist.min, "max": dist.max,
            **{f"p{q:g}": dist.percentile(q) for q in _PERCENTILES},
        }
    return digest


def sim_metrics(result: SimulationResult, ram_peak: int) -> Dict[str, float]:
    """The simulated end-to-end metrics of one measured replay.

    ``ram_peak`` is the largest ``ftl.ram_bytes()`` seen at a phase
    boundary (after each warm-up trace, after the measured run): the RAM
    the scheme had to be provisioned with, which - unlike the end-of-run
    snapshot - does not depend on where in a conversion cycle the trace
    happened to stop.
    """
    overall = result.responses.overall
    writes = result.ftl_stats.host_writes
    return {
        "sim_mean_us": overall.mean,
        "sim_tail99_mean_us": tail_mean(overall, 99.0),
        "sim_waf": result.flash.page_programs / writes,
        "sim_erases_per_kwrite": 1000.0 * result.flash.block_erases / writes,
        "sim_ram_kb": max(ram_peak, result.ram_bytes) / 1024.0,
    }


def read_your_writes(ftl: Any,
                     trace: Trace) -> Tuple[int, int, Dict[int, Any]]:
    """Shadow-map replay of ``trace`` plus a final sweep, counting.

    ``repro.sim.verify.verified_replay`` semantics (version tokens,
    every read compared with the last write, never-written pages read as
    None), except a mismatch is counted, not raised.  Returns
    ``(page ops checked, mismatches, shadow map)``.
    """
    shadow: Dict[int, Any] = {}
    checked = mismatched = version = 0
    cols = trace.to_columnar()
    for op, first, npages in zip(cols.ops, cols.lpns, cols.npages):
        for lpn in range(first, first + npages):
            checked += 1
            if op:
                token = (lpn, version)
                version += 1
                ftl.write(lpn, token)
                shadow[lpn] = token
            elif ftl.read(lpn).data != shadow.get(lpn):
                mismatched += 1
    swept, bad = sweep(ftl, shadow)
    return checked + swept, mismatched + bad, shadow


def sweep(ftl: Any, shadow: Dict[int, Any]) -> Tuple[int, int]:
    """Re-read every page of ``shadow``; ``(reads, mismatches)``."""
    bad = 0
    for lpn, expect in shadow.items():
        if ftl.read(lpn).data != expect:
            bad += 1
    return len(shadow), bad


def describe(exc: BaseException) -> str:
    """One line naming the exception type and where it was raised."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = ""
    if frames:
        last = frames[-1]
        where = f" ({last.filename.rsplit('/', 1)[-1]}:{last.lineno})"
    return f"{type(exc).__name__}: {exc}{where}"


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare(
    workload: Workload, profile: Profile, warm: List[Trace],
    spans: SpanRecorder, build: Builder = build_device,
    **build_extra: Any,
) -> Tuple[Any, int]:
    """One set-up: build the device, replay the warm-up, collect garbage.

    Garbage is also collected *before* building, so a device the caller
    has let go of (FTL and flash reference each other) is really gone:
    two alive at once double peak RSS and leave the new one scattered
    over the old one's holes, which made repeats bimodal (+-15%).

    Returns ``(ftl, peak ram_bytes at the warm-up boundaries)``.  Spans
    ``sim.build`` and ``sim.warm_up`` are what ``setup_s`` sums.
    """
    gc.collect()
    with spans.span("sim.build", steady=True):
        _, ftl = build(workload, profile, **build_extra)
    simulator = Simulator(ftl)
    ram_peak = ftl.ram_bytes()
    with spans.span("sim.warm_up", steady=True):
        for trace in warm:
            simulator.warm_up(trace)
            ram_peak = max(ram_peak, ftl.ram_bytes())
    gc.collect()
    return ftl, ram_peak


def guarded_replay(
    simulator: Simulator, trace: Trace, outcome: Outcome,
    spans: SpanRecorder, span_name: str = "sim.run",
) -> Tuple[Optional[SimulationResult], float]:
    """``simulator.run(trace)`` inside a span; a failure is counted.

    The harness boundary: a replay that raises becomes ``failed`` ops
    (those the FTL never completed) and an entry in ``errors`` naming the
    exception type - never a crash of the harness.  Returns
    ``(result or None, seconds)``: reference-speed seconds when ``spans``
    has a clock, wall seconds otherwise.
    """
    ftl = simulator.ftl
    page_ops = trace.page_ops
    outcome.attempted += page_ops
    before = ftl.stats.host_reads + ftl.stats.host_writes
    result = None
    with spans.span(span_name, steady=True) as timed:
        try:
            result = simulator.run(trace)
        except Exception as exc:  # ftlint: disable=FTL005
            outcome.errors.append(describe(exc))
            done = ftl.stats.host_reads + ftl.stats.host_writes - before
            outcome.failed += max(0, page_ops - done)
    return result, timed.seconds


def guarded_verify(ftl: Any, trace: Trace,
                   outcome: Outcome) -> Dict[int, Any]:
    """Read-your-writes on the aged device; mismatches count as failed.

    A verification pass that itself raises counts every one of its ops
    as failed.  Returns the shadow map (empty after an exception).
    """
    try:
        checked, bad, shadow = read_your_writes(ftl, trace)
    except Exception as exc:  # ftlint: disable=FTL005
        outcome.errors.append(describe(exc))
        checked = bad = trace.page_ops
        shadow = {}
    outcome.attempted += checked
    outcome.failed += bad
    return shadow


def check_result(result: SimulationResult, trace: Trace,
                 outcome: Outcome) -> None:
    """The per-run output checks every measured replay must pass."""
    stats = result.ftl_stats
    outcome.require("host_ops_match_trace",
                    stats.host_reads + stats.host_writes == trace.page_ops)
    outcome.require("no_redundant_invalidates",
                    result.flash.redundant_invalidates == 0)


def run_timed(
    workload: Workload, profile: Profile, seed: int, seconds: float,
    spans: SpanRecorder, build: Builder = build_device,
) -> Outcome:
    """The timed pass for one workload; never raises on a failed replay.

    ``build`` is the device factory (tests substitute a failing FTL).
    """
    outcome = Outcome()
    with spans.span("traces.generate", steady=True) as generated:
        trace = workload.trace(profile, seed)
        warm = warmup_traces(workload, profile, seed)
        trace.to_columnar()
    page_ops = trace.page_ops
    digests: List[Dict[str, Any]] = []
    runs: List[Span] = []
    result: Optional[SimulationResult] = None
    ftl: Any = None
    ram_peak = 0
    timed_total = 0.0
    repeats = 0
    while repeats < profile.min_repeats or (
        timed_total < seconds and repeats < profile.max_repeats
    ):
        repeats += 1
        ftl = result = None  # let go of the previous repeat's device
        with spans.span("repeat"):
            ftl, ram_peak = prepare(workload, profile, warm, spans, build)
            result, _ = guarded_replay(
                Simulator(ftl), trace, outcome, spans)
        run = spans.named("sim.run")[-1]
        timed_total += run.duration
        if result is not None:
            runs.append(run)
            digests.append(sim_digest(result))
            check_result(result, trace, outcome)

    setups = list(zip(spans.named("sim.build"), spans.named("sim.warm_up")))
    kops = [page_ops / run.seconds / 1000.0 for run in runs]
    setup = [build.seconds + warmed.seconds for build, warmed in setups]
    outcome.samples = {
        "replay_kops_per_s": kops,
        "replay_wall_kops_per_s":
            [page_ops / (run.work_s or run.duration) / 1000.0
             for run in runs],
        "setup_repeat_s": setup,
        "setup_repeat_wall_s":
            [build.duration + warmed.duration for build, warmed in setups],
    }
    outcome.metrics["replay_kops_per_s"] = \
        statistics.median(kops) if kops else 0.0
    outcome.metrics["setup_s"] = generated.seconds + statistics.median(setup)
    outcome.checks["sim_stats_repeat_exactly"] = \
        all(d == digests[0] for d in digests[1:])
    if result is not None:
        # Only a device whose last timed run completed is verified; a
        # dead one has already been counted as failed.
        outcome.digest = digests[-1]
        outcome.metrics.update(sim_metrics(result, ram_peak))
        with spans.span("verify"):
            guarded_verify(ftl, workload.verify_trace(profile, seed),
                           outcome)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome
