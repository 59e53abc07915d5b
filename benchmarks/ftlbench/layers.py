"""The traced pass: per-layer metrics, measured from outside the program.

Runs after and apart from the timed pass, on the first quarter of each
measured trace.  Four instruments, all reached through public calls:

* harness spans (:mod:`.spans`) around every call into a layer;
* ``cProfile`` self-time and call counts grouped by ``repro.<package>``;
* the repo's own ``Tracer`` + ``OpLatencyRecorder`` (simulated time per
  cause) and ``FtlStats`` / ``FlashStats`` counters;
* direct micro-benchmarks of a fresh ``NandFlash``.

Each instrument gets its own freshly built and warmed device, so no pass
sees state another pass aged.  The ratio of a pass's wall time to the
untraced base pass on the same quarter trace is that instrument's
overhead (``obs.traced_slowdown_x`` is the tracing overhead).
"""

from __future__ import annotations

import cProfile
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.checks import SanitizerViolation
from repro.core import recover
from repro.flash import FlashGeometry, NandFlash, OOBData, PageKind
from repro.obs import OpLatencyRecorder, Tracer
from repro.perf import batch
from repro.sim.factory import supports_recovery
from repro.sim.simulator import SimulationResult, Simulator
from repro.traces import cache as trace_cache
from repro.traces.io import load_trace, save_trace
from repro.traces.model import Trace

from .harness import (
    Outcome, check_result, describe, guarded_replay, guarded_verify,
    prepare, sim_digest, sweep,
)
from .metrics import PROFILED_PACKAGES
from .spans import SpanRecorder
from .workloads import Profile, Workload, warmup_traces

#: Share of each measured trace the traced passes replay.
TRACED_FRACTION = 4
#: Blocks programmed / read / erased by the raw-flash micro-benchmark.
MICRO_BLOCKS = 512


_PACKAGE_DIR = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def package_of(filename: str) -> str:
    """``repro.<package>`` a source file belongs to, else ``other``."""
    found = _PACKAGE_DIR.search(filename)
    if found and found.group(1) in PROFILED_PACKAGES:
        return found.group(1)
    return "other"


def profile_split(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self time and call count per package from one cProfile capture.

    A builtin has no file, so its time is charged to the package of the
    Python function that called it (cProfile's per-caller sub-entries);
    top-level builtin rows are skipped to avoid counting them twice.
    """
    split = {name: {"self_s": 0.0, "calls": 0.0}
             for name in PROFILED_PACKAGES + ("other",)}
    total_calls = 0
    for row in profiler.getstats():
        total_calls += row.callcount
        if isinstance(row.code, str):
            continue
        bucket = split[package_of(row.code.co_filename)]
        bucket["self_s"] += row.inlinetime
        bucket["calls"] += row.callcount
        for sub in row.calls or ():
            if isinstance(sub.code, str):
                bucket["self_s"] += sub.inlinetime
    split["all"] = {
        "self_s": sum(b["self_s"] for b in split.values()),
        "calls": float(total_calls),
    }
    return split


def flash_micro(profile: Profile) -> Dict[str, float]:
    """Raw program / read / erase throughput of a fresh ``NandFlash``."""
    device = profile.device
    blocks = min(MICRO_BLOCKS, device.num_blocks)
    pages = blocks * device.pages_per_block
    flash = NandFlash(FlashGeometry(
        num_blocks=blocks, pages_per_block=device.pages_per_block,
        page_size=device.page_size,
    ))
    oobs = [OOBData(ppn, ppn, PageKind.DATA) for ppn in range(pages)]
    start = time.perf_counter()
    for ppn in range(pages):
        flash.program_page(ppn, None, oobs[ppn])
    programmed = time.perf_counter()
    for ppn in range(pages):
        flash.read_page(ppn)
    read = time.perf_counter()
    for ppn in range(pages):
        flash.invalidate_page(ppn)
    invalidated = time.perf_counter()
    for pbn in range(blocks):
        flash.erase_block(pbn)
    erased = time.perf_counter()
    return {
        "flash.micro.program_kops_per_s":
            pages / (programmed - start) / 1000.0,
        "flash.micro.read_kops_per_s": pages / (read - programmed) / 1000.0,
        "flash.micro.erase_kops_per_s":
            blocks / (erased - invalidated) / 1000.0,
    }


def trace_io(trace: Trace, scratch: Path,
             spans: SpanRecorder) -> Dict[str, float]:
    """Text save, cold parse and binary-cache hit of one trace file."""
    with tempfile.TemporaryDirectory(dir=scratch, prefix="trace-") as tmp:
        path = str(Path(tmp) / "measured.trace")
        save_trace(trace, path)
        try:
            trace_cache.configure(enabled=False)
            with spans.span("traces.parse_cold") as cold:
                load_trace(path)
            trace_cache.configure(Path(tmp) / "cache")
            load_trace(path)  # prime the binary cache
            with spans.span("traces.parse_cached") as cached:
                load_trace(path)
        finally:
            # The benchmark never reads a cached trace: generation is
            # part of setup_s on every run.
            trace_cache.configure(enabled=False)
    return {"traces.parse_cold_s": cold.duration,
            "traces.parse_cached_s": cached.duration}


def _sim_shares(recorder: OpLatencyRecorder, scheme: str) -> Dict[str, float]:
    """Simulated-time shares per cause from the latency recorder."""
    overall = recorder.scheme_summary(scheme)["classes"]["overall"]
    by_cause = overall["by_cause_us"]
    total = sum(by_cause.values()) + overall["unattributed_us"]

    def share(bucket: str) -> float:
        return by_cause.get(bucket, 0.0) / total if total else 0.0

    return {
        "core.sim_share.gc": share("gc"),
        "core.sim_share.mapping_commit": share("mapping_commit"),
        "core.sim_share.translation_read": share("translation_read"),
        "flash.sim_share.device_read": share("device_read"),
        "flash.sim_share.device_program": share("device_program"),
        "flash.sim_share.device_erase": share("device_erase"),
        # Outside the service decomposition (like queueing): how much
        # stripe imbalance cost, relative to the attributed total.
        "flash.sim_share.channel_wait":
            overall["channel_wait_us"] / total if total else 0.0,
        "obs.attributed_fraction": overall["attributed_fraction"],
    }


def _counter_metrics(result: SimulationResult, wall: float) -> Dict[str, float]:
    """Work counts at the layer boundaries, from FtlStats / FlashStats."""
    ftl, flash = result.ftl_stats, result.flash
    kops = result.page_ops / 1000.0
    return {
        "core.gc_copies_per_host_write":
            ftl.gc_page_copies / max(1, ftl.host_writes),
        "core.converts": float(ftl.converts),
        "core.entries_per_map_write":
            ftl.batched_commits / ftl.map_writes if ftl.map_writes else 0.0,
        "core.map_reads_per_host_read":
            ftl.map_reads / max(1, ftl.host_reads),
        "flash.ops_per_kop.read": flash.page_reads / kops,
        "flash.ops_per_kop.program": flash.page_programs / kops,
        "flash.ops_per_kop.erase": flash.block_erases / kops,
        "flash.overlap_x": flash.total_us / result.device_busy_us,
        "flash.wear_cv": result.wear["cv"],
        "sim.host_us_per_flash_op": wall * 1e6 / flash.total_ops,
    }


def _recovery(ftl: Any, verify: Trace, outcome: Outcome,
              spans: SpanRecorder) -> Dict[str, float]:
    """Power-cycle the aged device, recover, read back what was written.

    Schemes with no recovery design report zeros (DFTL today; ROADMAP
    item 5 turns these non-zero).
    """
    zeros = {"core.recovery.host_s": 0.0, "core.recovery.sim_ms": 0.0,
             "core.recovery.pages_read": 0.0}
    shadow = guarded_verify(ftl, verify, outcome)
    if not supports_recovery(ftl) or not shadow:
        return zeros
    ftl.flash.power_off()
    outcome.attempted += len(shadow)
    try:
        with spans.span("core.recover") as span:
            recovered, report = recover(
                ftl.flash, ftl.logical_pages, ftl.config)
        _, bad = sweep(recovered, shadow)
    except Exception as exc:  # ftlint: disable=FTL005
        outcome.errors.append(describe(exc))
        outcome.failed += len(shadow)
        return zeros
    outcome.failed += bad
    return {"core.recovery.host_s": span.duration,
            "core.recovery.sim_ms": report.latency_us / 1000.0,
            "core.recovery.pages_read": float(report.pages_read)}


class _Passes:
    """The traced passes of one workload.

    Each pass is a method that builds its own device and lets go of it on
    return, so no pass is measured with another pass's device still alive
    beside it.  Wall-time ratios are taken against :meth:`base`.
    """

    def __init__(self, workload: Workload, profile: Profile, seed: int,
                 spans: SpanRecorder):
        self.workload, self.profile, self.seed = workload, profile, seed
        self.spans = spans
        self.outcome = Outcome()
        self.metrics = self.outcome.metrics
        with spans.span("traces.generate") as generated:
            full = workload.trace(profile, seed)
            self.warm = warmup_traces(workload, profile, seed)
            self.trace = full.slice(
                0, max(1, len(full) // TRACED_FRACTION))
            self.trace.to_columnar()
        self.metrics["traces.generate_s"] = generated.duration
        self.page_ops = self.trace.page_ops
        self.reference: Optional[Dict[str, Any]] = None
        self.base_wall = 0.0

    def fresh(self, **extra: Any) -> Any:
        ftl, _ = prepare(self.workload, self.profile, self.warm,
                         self.spans, **extra)
        return ftl

    def measured(self, name: str, simulator: Simulator):
        """Replay the quarter trace in span ``name`` and check it."""
        result, wall = guarded_replay(
            simulator, self.trace, self.outcome, self.spans, name)
        if result is not None:
            check_result(result, self.trace, self.outcome)
            if self.reference is not None:
                self.outcome.require("passes_agree_bit_for_bit",
                                     sim_digest(result) == self.reference)
        return result, wall

    def base(self) -> None:
        """Untraced, default replay mode - what the timed pass runs -
        then a power cycle and recovery of the device it aged."""
        metrics, spans = self.metrics, self.spans
        with spans.span("pass.base"):
            ftl = self.fresh()
            engine = batch.engine_for(ftl)
            metrics["perf.engine_engaged"] = float(
                engine is not None
                and engine.supports(self.trace.to_columnar()))
            metrics["perf.backend"] = float(batch.backend_name() == "numpy")
            result, self.base_wall = self.measured("sim.run", Simulator(ftl))
        metrics["sim.build_s"] = spans.durations("sim.build")[0]
        metrics["sim.warm_up_s"] = spans.durations("sim.warm_up")[0]
        if result is None:
            return
        self.reference = self.outcome.digest = sim_digest(result)
        metrics.update(_counter_metrics(result, self.base_wall))
        with spans.span("pass.recovery"):
            metrics.update(_recovery(
                ftl, self.workload.verify_trace(self.profile, self.seed),
                self.outcome, spans))

    def scalar(self) -> None:
        """Forced scalar: the other side of the batch-engine choice."""
        with self.spans.span("pass.scalar"):
            _, wall = self.measured(
                "sim.run_scalar",
                Simulator(self.fresh(), replay_mode="scalar"))
        self.metrics["perf.batch_speedup_x"] = wall / self.base_wall

    def profiled(self) -> None:
        """cProfile: host self-time and call counts per package."""
        metrics = self.metrics
        with self.spans.span("pass.profile"):
            simulator = Simulator(self.fresh())
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                _, wall = self.measured("sim.run_profiled", simulator)
            finally:
                profiler.disable()
        split = profile_split(profiler)
        total_self = split["all"]["self_s"] or 1.0
        for package in PROFILED_PACKAGES + ("other",):
            metrics[f"{package}.self_share"] = \
                split[package]["self_s"] / total_self
        for package in ("core", "ftl", "flash"):
            metrics[f"{package}.calls_per_kop"] = \
                split[package]["calls"] / (self.page_ops / 1000.0)
        metrics["host.pycalls_per_op"] = split["all"]["calls"] / self.page_ops
        metrics["host.profile_slowdown_x"] = wall / self.base_wall

    def traced(self) -> None:
        """Tracer + latency recorder: simulated time per cause."""
        metrics = self.metrics
        with self.spans.span("pass.traced"):
            recorder = OpLatencyRecorder()
            tracer = Tracer(latency=recorder)
            ftl = self.fresh()
            _, wall = self.measured(
                "sim.run_traced", Simulator(ftl, tracer=tracer))
        metrics.update(_sim_shares(recorder, ftl.name))
        metrics["obs.traced_slowdown_x"] = wall / self.base_wall
        metrics["obs.events_per_op"] = tracer.events_emitted / self.page_ops
        self.outcome.checks["attributed_fraction_ge_0.99"] = \
            metrics["obs.attributed_fraction"] >= 0.99

    def sanitized(self) -> None:
        """flashsan: every raw op validated, full mapping audit after."""
        with self.spans.span("pass.flashsan"):
            ftl = self.fresh(sanitize=True)
            _, wall = self.measured("sim.run_sanitized", Simulator(ftl))
            try:
                violations = len(ftl.audit().violations)
            except SanitizerViolation as exc:
                self.outcome.errors.append(f"SanitizerViolation: {exc}")
                violations = 1
        self.metrics["checks.flashsan_slowdown_x"] = wall / self.base_wall
        self.metrics["checks.flashsan_violations"] = float(violations)
        self.outcome.checks["flashsan_clean"] = violations == 0

    def scaled(self) -> None:
        """The same number of requests on twice the blocks and footprint."""
        big = self.profile.doubled()
        with self.spans.span("pass.scale"):
            trace = self.workload.generate(big, self.seed, len(self.trace))
            ftl, _ = prepare(
                self.workload, big,
                warmup_traces(self.workload, big, self.seed), self.spans)
            result, wall = guarded_replay(
                Simulator(ftl), trace, self.outcome, self.spans,
                "sim.run_x2")
        self.metrics["scale.kops_ratio_4096_vs_2048"] = (
            (trace.page_ops / wall) / (self.page_ops / self.base_wall)
            if result is not None else 0.0)


def run_layers(workload: Workload, profile: Profile, seed: int,
               spans: SpanRecorder, scratch: Path) -> Outcome:
    """Every per-layer metric for one workload."""
    passes = _Passes(workload, profile, seed, spans)
    passes.base()
    if passes.reference is not None:
        # Without a base replay there is nothing to compare the
        # instruments with; the caller reports the missing names.
        for instrument in (passes.scalar, passes.profiled, passes.traced,
                           passes.sanitized, passes.scaled):
            instrument()
    # Last, so their garbage never sits under a device being measured.
    passes.metrics.update(trace_io(passes.trace, scratch, spans))
    passes.metrics.update(flash_micro(profile))
    return passes.outcome
