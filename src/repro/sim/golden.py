"""Golden-stats capture: exact engine digests for regression testing.

The PR-3 hot-path overhaul (array-backed mapping tables, slotted flash
state, pre-bound fast/slow tracer dispatch) must not change a single
modeled statistic: erase counts, merge counts, response-time
distributions, RAM accounting - everything an experiment reports has to
stay bit-identical, because the figures in EXPERIMENTS.md were produced
by the pre-overhaul engine.

This module defines the canonical *golden workload* (a small device, two
deterministic single-page traces, every scheme; one multi-page trace for
the page-mapping schemes, whose requests go through the host run ops; one
in-order-rewrite trace for the five log-block schemes, whose switch and
partial merges the other traces never reach) and
an :func:`engine_digest` that
flattens a :class:`~repro.sim.simulator.SimulationResult` into plain
JSON-serialisable data.  ``tools/gen_golden_stats.py`` regenerates the
committed snapshots (``tests/golden/engine_stats*.json``) and
``tests/test_golden_stats.py`` asserts the current engine still produces
exactly the committed numbers.  Floats survive the JSON round-trip
losslessly (``repr`` round-trips IEEE-754 doubles), so ``==`` on the
loaded digest is a bit-exact comparison.

:func:`collect_trace_digests` pins the workloads themselves
(``tests/golden/trace_digests.json``): a hash of every generator's,
parser's, join's and slice's columns, so a change to how a trace is held
cannot move a request unnoticed.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from typing import Dict, List, Optional, Sequence

from ..obs.events import TraceEvent
from ..obs.latency import OpLatencyRecorder
from ..obs.sinks import TraceSink
from ..obs.tracer import Tracer
from ..traces import (
    IORequest,
    OpType,
    Trace,
    financial1,
    financial2,
    hot_cold,
    load_trace,
    merge_traces,
    mixed,
    parse_msr,
    parse_spc,
    save_trace,
    sequential,
    tpcc,
    uniform_random,
    warmup_fill,
    websearch,
    zipf,
)
from .factory import SCHEMES
from .runner import DeviceSpec, run_scheme
from .simulator import SimulationResult

#: Small device so GC/merges churn within a few thousand operations.
#: Mirrors the ``tools/check_all.py`` trace-smoke geometry.
GOLDEN_DEVICE = DeviceSpec(
    num_blocks=96,
    pages_per_block=16,
    page_size=512,
    logical_fraction=0.7,
)

#: The same device striped over four channels: pins down the parallel
#: model (striped placement + overlap timing) for the schemes that opt
#: into frontier striping.  Kept in a *separate* snapshot file
#: (``engine_stats_4ch.json``) so the serial snapshot's exact key-set
#: check keeps certifying that 1x1x1 behaviour never moved.
GOLDEN_DEVICE_4CH = DeviceSpec(
    num_blocks=96,
    pages_per_block=16,
    page_size=512,
    logical_fraction=0.7,
    channels=4,
)

#: Schemes whose area managers stripe frontier allocation across
#: parallel units (the rest are serial-only baselines).
STRIPED_SCHEMES = ("ideal", "DFTL", "LazyFTL")

#: The log-block baselines: the schemes that merge (superblock cleans
#: in-group instead, through the same per-page copy sequence).
LOG_BLOCK_SCHEMES = ("NFTL", "BAST", "FAST", "LAST", "superblock")


def golden_traces():
    """The two deterministic traces every scheme replays for the digest.

    Uniform random writes are the merge/GC torture case; the hot/cold mix
    exercises read paths, skew handling and LazyFTL's cold-area logic.
    """
    pages = GOLDEN_DEVICE.logical_pages
    return [
        uniform_random(
            1500, pages, write_ratio=0.8, seed=11, name="golden-random",
        ),
        hot_cold(
            1200, pages, write_ratio=0.7, hot_fraction=0.2,
            hot_probability=0.8, seed=7, name="golden-hotcold",
        ),
    ]


def engine_digest(result: SimulationResult) -> Dict[str, object]:
    """Flatten a result into the exact-comparable statistics dictionary.

    Everything here is *modeled* state (simulated microseconds, counter
    values, RAM-model bytes), so it is invariant under pure-performance
    refactors of the engine internals.
    """
    return {
        "scheme": result.scheme,
        "trace": result.trace_name,
        "requests": result.requests,
        "page_ops": result.page_ops,
        "flash": result.flash.as_dict(),
        "ftl": result.ftl_stats.as_dict(),
        "responses": result.responses.summary(),
        "wear": dict(result.wear),
        "ram_bytes": result.ram_bytes,
        "device_busy_us": result.device_busy_us,
    }


def golden_multipage_trace() -> Trace:
    """The multi-page trace: websearch-shaped 4-16-page requests, a fifth
    of them writes so the write runs meet GC and conversions too.  Its
    digests live in a third file (``engine_stats_multipage.json``): the
    single-page files certify that a host-run-op change moved nothing a
    single-page request can see."""
    return websearch(
        700, GOLDEN_DEVICE.logical_pages, seed=5, write_ratio=0.2,
        name="golden-multipage",
    )


def golden_merges_trace() -> Trace:
    """The merge trace: whole logical blocks rewritten in order (switch
    merges), a sweep that stops mid-block and sequential runs cut short by
    random jumps (in-order prefixes: partial merges), random updates in
    between (full merges, folds).  The two single-page traces above are
    random and hot/cold only - ``merges_switch == 0`` in every entry of
    ``engine_stats.json`` - so this is the one snapshot
    (``engine_stats_merges.json``) that pins the switch path, the partial
    path and FAST / LAST's sequential logs."""
    pages = GOLDEN_DEVICE.logical_pages
    per_block = GOLDEN_DEVICE.pages_per_block
    return merge_traces([
        sequential(20 * per_block + 7, pages, seed=3),
        mixed(900, pages, sequential_fraction=0.9, write_ratio=0.85, seed=13),
        sequential(40, pages, request_pages=4, seed=5),
    ], name="golden-merges")


class EventStreamHash(TraceSink):
    """SHA-256 over ``(type, cause, lpn, ppn, kind)`` of every event, in
    order: pins where each ``MergeStart`` / ``MergeEnd`` sits in the stream
    of raw ops and which addresses every op between them touched."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.events = 0

    def emit(self, event: TraceEvent) -> None:
        self._sha.update(repr((
            event.type.value, event.cause.value, event.lpn, event.ppn,
            event.extra.get("kind"),
        )).encode("ascii"))
        self.events += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def merges_digest(
    scheme: str, replay_mode: Optional[str] = None, traced: bool = True,
    latency: Optional[OpLatencyRecorder] = None,
) -> Dict[str, object]:
    """:func:`engine_digest` of ``scheme`` over the merge trace plus, when
    ``traced``, the hash of its event stream (an untraced run yields the
    engine half alone - the statistics must not depend on the tracer, nor
    the stream on a ``latency`` recorder beside the hashing sink)."""
    stream = EventStreamHash()
    digest = engine_digest(run_scheme(
        scheme, golden_merges_trace(), device=GOLDEN_DEVICE,
        precondition="steady", replay_mode=replay_mode,
        tracer=Tracer([stream], latency=latency) if traced else None,
    ))
    if traced:
        digest["events"] = stream.events
        digest["events_sha256"] = stream.hexdigest()
    return digest


def _collect(
    schemes: Sequence[str], traces: Sequence[Trace], device: DeviceSpec,
    suffix: str = "",
) -> Dict[str, Dict[str, object]]:
    """``"scheme/trace<suffix>" -> digest`` on ``device``.

    Steady-state preconditioning is part of the workload: it drives every
    scheme's garbage collector before measurement, which is where the
    schemes differ most (and where a refactor would most likely slip).
    """
    digests: Dict[str, Dict[str, object]] = {}
    for trace in traces:
        for scheme in schemes:
            result = run_scheme(
                scheme, trace, device=device, precondition="steady",
            )
            digests[f"{scheme}/{trace.name}{suffix}"] = engine_digest(result)
    return digests


def collect_golden_digests(
    schemes: Sequence[str] = SCHEMES,
) -> Dict[str, Dict[str, object]]:
    """Run the golden workload and return ``"scheme/trace" -> digest``."""
    return _collect(schemes, golden_traces(), GOLDEN_DEVICE)


def collect_golden_digests_4ch(
    schemes: Sequence[str] = STRIPED_SCHEMES,
) -> Dict[str, Dict[str, object]]:
    """Golden digests on the 4-channel device for striping schemes.

    Same workload as :func:`collect_golden_digests`, replayed on
    :data:`GOLDEN_DEVICE_4CH`: pins striped placement and overlapped
    service latencies (``device_busy_us`` drops well below the serial
    figure while flash wear counters stay workload-determined).
    """
    return _collect(schemes, golden_traces(), GOLDEN_DEVICE_4CH)


def collect_golden_digests_multipage(
    schemes: Sequence[str] = STRIPED_SCHEMES,
) -> Dict[str, Dict[str, object]]:
    """``"scheme/golden-multipage@device" -> digest`` on both devices:
    pins the host run ops, and LazyFTL's one GMT read per (request,
    translation page), serial and striped."""
    trace = [golden_multipage_trace()]
    return {
        **_collect(schemes, trace, GOLDEN_DEVICE, "@1x1x1"),
        **_collect(schemes, trace, GOLDEN_DEVICE_4CH, "@4x1x1"),
    }


def collect_golden_digests_merges(
    schemes: Sequence[str] = LOG_BLOCK_SCHEMES,
) -> Dict[str, Dict[str, object]]:
    """``"scheme/golden-merges" -> digest`` with the event-stream hash:
    pins every merge kind, and where its span opens and closes."""
    name = golden_merges_trace().name
    return {f"{scheme}/{name}": merges_digest(scheme) for scheme in schemes}


#: The parser tests' SPC and MSR lines (``tests/test_traces_spc.py``,
#: ``tests/test_traces_msr.py``), parsed for the trace digests.
SPC_LINES = (
    "# Financial-style header",
    "0,0,2048,W,0.000",
    "0,8,2048,W,0.001",
    "0,0,2048,R,0.002",
    "",
    "1,0,4096,R,0.003",
)
MSR_LINES = (
    "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
    "128166372003061629,src1,0,Write,0,4096,100",
    "128166372003071629,src1,0,Write,8192,4096,100",
    "128166372003081629,src1,0,Read,0,4096,100",
    "128166372003091629,src1,1,Read,0,2048,100",
)


def trace_digest(trace: Trace) -> str:
    """SHA-256 over a trace's name and each column's bytes (``None`` for
    the arrivals of a closed-loop trace)."""
    sha = hashlib.sha256(trace.name.encode("utf-8"))
    for column in (trace.ops, trace.lpns, trace.npages, trace.arrivals):
        sha.update(b"None" if column is None else column.tobytes())
    return sha.hexdigest()


def _open_loop(n: int, seed: int, name: str) -> Trace:
    """Timestamped multi-page requests on a coarse clock (equal arrivals
    within and across traces exercise the merge's tie-break)."""
    rng = random.Random(seed)
    return Trace([
        IORequest(OpType.WRITE if rng.random() < 0.6 else OpType.READ,
                  rng.randrange(500), 1 + rng.randrange(4),
                  arrival_us=float(rng.randrange(40)))
        for _ in range(n)
    ], name=name)


def golden_trace_set() -> List[Trace]:
    """Every generator at two parameter sets (the second with multi-page
    requests where the generator takes a size), both parsers, joins of
    closed-, open- and mixed-loop traces, and slices."""
    fp = 1000
    spc = parse_spc(SPC_LINES)
    msr = parse_msr(MSR_LINES)
    opened = [_open_loop(60, seed, f"open-{seed}") for seed in (1, 2)]
    part_open = Trace([
        IORequest(OpType.WRITE, 3, 1, arrival_us=5.0),
        IORequest(OpType.READ, 7, 2),
        IORequest(OpType.WRITE, 1, 1, arrival_us=2.5),
    ], name="part-open")
    random4 = uniform_random(300, fp, max_request_pages=4, seed=2,
                             name="random-4")
    return [
        uniform_random(300, fp, write_ratio=0.7, seed=1),
        random4,
        sequential(300, fp, seed=1),
        sequential(300, 999, write_ratio=0.5, request_pages=4, seed=2,
                   name="sequential-4"),
        hot_cold(300, fp, seed=1),
        hot_cold(300, fp, write_ratio=0.6, hot_fraction=0.1,
                 hot_probability=0.9, max_request_pages=4, seed=2,
                 name="hot-cold-4"),
        zipf(300, fp, seed=1),
        zipf(300, fp, write_ratio=0.5, theta=0.6, max_request_pages=4,
             seed=2, name="zipf-4"),
        mixed(300, fp, seed=1),
        mixed(300, fp, sequential_fraction=0.2, write_ratio=0.4, seed=2,
              name="mixed-2"),
        warmup_fill(fp),
        warmup_fill(999, request_pages=4, name="warmup-fill-4"),
        financial1(300, fp, seed=1),
        financial1(300, 4096, seed=2, write_ratio=0.5, name="financial1-2"),
        financial2(300, fp, seed=1),
        financial2(300, 4096, seed=2, write_ratio=0.3, name="financial2-2"),
        websearch(300, fp, seed=1),
        websearch(300, 4096, seed=2, write_ratio=0.2, theta=0.5,
                  name="websearch-2"),
        tpcc(300, fp, seed=1),
        tpcc(300, 4096, seed=2, name="tpcc-2"),
        spc,
        parse_spc(SPC_LINES, compact=False, name="spc-sparse"),
        msr,
        parse_msr(MSR_LINES, compact=False, rebase_time=False,
                  name="msr-sparse"),
        merge_traces(opened, name="merged-open"),
        merge_traces([opened[0], spc, msr], name="merged-parsed"),
        merge_traces([opened[1], random4, part_open], name="merged-mixed"),
        merge_traces([random4, warmup_fill(fp)], name="merged-closed"),
        random4.slice(50, 120),
        opened[0].slice(10, 40),
        part_open.slice(1, 3),
    ]


def collect_trace_digests() -> Dict[str, str]:
    """``trace name -> trace_digest`` for :func:`golden_trace_set`, and
    ``load:<name>`` for a :func:`save_trace` -> :func:`load_trace` round
    trip of each join."""
    traces = golden_trace_set()
    digests = {trace.name: trace_digest(trace) for trace in traces}
    with tempfile.TemporaryDirectory(prefix="trace-digests-") as tmp:
        for trace in traces:
            if trace.name.startswith("merged-"):
                path = os.path.join(tmp, f"{trace.name}.trace")
                save_trace(trace, path)
                digests[f"load:{trace.name}"] = trace_digest(load_trace(path))
    return digests
