"""Trace-driven simulation: replay a workload through an FTL and collect
response-time statistics.

Replay model (matching the trace-driven methodology of the paper's
evaluation): the device serves one request at a time (FCFS).

* Closed-loop requests (``arrival_us is None``) are issued as soon as the
  device is free, so response time equals FTL service time.
* Open-loop requests (timestamped) queue behind the busy device, so
  response time includes queueing delay - this is how merge stalls in
  BAST/FAST hurt *subsequent* requests too.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..flash.stats import FlashStats, wear_summary
from ..ftl.base import FlashTranslationLayer
from ..ftl.stats import FtlStats
from ..obs.tracer import Tracer
from ..perf import batch as _batch
from ..traces.model import Trace
from .metrics import ResponseStats

#: Replay-mode selection: ``auto`` engages the epoch-segmented batch
#: engine (repro.perf.batch) whenever the scheme/device is eligible;
#: ``scalar`` never asks for them - the reference path the golden gate
#: and ftlbench compare the kernels against.
REPLAY_MODES = ("auto", "scalar")

#: Requests per recorded chunk of the response column: the replay appends
#: each response to one ``array('d')`` and hands it to
#: :meth:`ResponseStats.record_many` once this many are waiting (an epoch
#: is never cut, so a chunk may run over by one epoch).  Any positive
#: value records the same statistics; this only bounds the column and the
#: kernel's numpy temporaries - at 8192, 64 KiB each, under the C
#: allocator's default 128 KiB mmap threshold (65 536 left
#: ``point_read_hot``'s peak RSS ~2 MiB higher in ftlbench pairs).
RESPONSE_CHUNK = 8192


@dataclass
class SimulationResult:
    """Everything a benchmark needs to print its table row."""

    scheme: str
    trace_name: str
    requests: int
    page_ops: int
    responses: ResponseStats
    flash: FlashStats
    ftl_stats: FtlStats
    wear: Dict[str, float]
    ram_bytes: int
    device_busy_us: float
    #: Per-cause time attribution (populated only when the run was traced;
    #: see repro.obs) - the "where did the time go" decomposition.
    attribution: Optional[Dict[str, object]] = field(default=None)

    @property
    def mean_response_us(self) -> float:
        return self.responses.overall.mean

    @property
    def erases(self) -> int:
        return self.flash.block_erases

    def row(self) -> Dict[str, float]:
        """Flat summary row for report tables.

        Queries the three figures it needs directly instead of building
        the full seven-entry summary dict and discarding most of it.
        """
        overall = self.responses.overall
        return {
            "scheme": self.scheme,
            "trace": self.trace_name,
            "requests": self.requests,
            "mean_us": overall.mean,
            "p99_us": overall.percentile(99),
            "max_us": overall.max,
            "erases": self.flash.block_erases,
            "merges": self.ftl_stats.merges_total,
            "gc_copies": self.ftl_stats.gc_page_copies
            + self.ftl_stats.merge_page_copies,
            "map_reads": self.ftl_stats.map_reads,
            "map_writes": self.ftl_stats.map_writes,
            "map_gc_copies": self.ftl_stats.map_gc_copies,
            "ram_kb": self.ram_bytes / 1024.0,
        }


class Simulator:
    """Replays traces against one FTL instance.

    Args:
        ftl: The scheme under test.
        tracer: Optional :class:`~repro.obs.tracer.Tracer`; when given it
            is attached through the FTL down to the flash chip, host
            events are emitted per page operation, and the result carries
            a per-cause time attribution.  When None (the default) the
            whole replay path is tracing-free.
        replay_mode: One of :data:`REPLAY_MODES`; None means ``auto``.
            Traced replays always run scalar regardless (the batch
            engine declines an FTL with a tracer attached).
    """

    def __init__(
        self,
        ftl: FlashTranslationLayer,
        tracer: Optional[Tracer] = None,
        replay_mode: Optional[str] = None,
    ):
        self.ftl = ftl
        self.tracer = tracer
        if replay_mode is None:
            replay_mode = "auto"
        if replay_mode not in REPLAY_MODES:
            raise ValueError(
                f"replay_mode must be one of {REPLAY_MODES}, "
                f"got {replay_mode!r}"
            )
        self.replay_mode = replay_mode
        if tracer is not None:
            ftl.attach_tracer(tracer)

    def warm_up(self, trace: Trace) -> None:
        """Run a trace without recording statistics (pre-conditioning):
        arrivals are ignored and idle gaps grant no background work."""
        self._replay(trace, None)

    def run(
        self,
        trace: Trace,
        warmup: Optional[Trace] = None,
        reset_counters: bool = True,
    ) -> SimulationResult:
        """Replay ``trace`` and return the measured statistics.

        Args:
            warmup: Optional pre-conditioning trace excluded from stats.
            reset_counters: Snapshot-and-diff the flash counters so the
                result reflects only the measured trace.
        """
        tracer = self.tracer
        if warmup is not None:
            # Warm-up is pre-conditioning, not measurement: keep it out of
            # the trace so event streams describe only the measured run.
            if tracer is None:
                self.warm_up(warmup)
            else:
                tracer.suspend()
                try:
                    self.warm_up(warmup)
                finally:
                    # A warm-up that raises must not leave the tracer
                    # muted for every later run on this simulator.
                    tracer.resume()
        if tracer is not None:
            tracer.begin_run(self.ftl.name)
        flash_before = self.ftl.flash.stats.snapshot() if reset_counters \
            else FlashStats()
        ftl_before = self.ftl.stats.snapshot() if reset_counters \
            else FtlStats()
        responses = ResponseStats()
        busy = self._replay(trace, responses)
        attribution = None if tracer is None \
            else tracer.attribution.scheme_summary(self.ftl.name)
        return SimulationResult(
            scheme=self.ftl.name,
            trace_name=trace.name,
            requests=len(trace),
            page_ops=trace.page_ops,
            responses=responses,
            flash=self.ftl.flash.stats.diff(flash_before),
            ftl_stats=self.ftl.stats.diff(ftl_before),
            wear=wear_summary(self.ftl.flash.erase_counts()),
            ram_bytes=self.ftl.ram_bytes(),
            device_busy_us=busy,
            attribution=attribution,
        )

    def _replay(
        self, cols: Trace, responses: Optional[ResponseStats]
    ) -> float:
        """The one per-request replay loop; returns device-busy time.

        Every replay - warm-up, untraced, traced, and the requests
        between batch epochs - is this sequence of float operations, so
        all of them agree bit for bit by construction::

            while requests remain:
                column full?  record it, empty it
                engine?  plan -> h >= MIN_EPOCH -> bulk epoch, continue
                scalar segment: the short horizon + the boundary request
                                (the rest of the chunk when there is no
                                engine)
            record what the column holds

        Each response - a scalar turn's, or an epoch's services - is
        appended to one ``array('d')`` column, recorded through one
        kernel (:meth:`ResponseStats.record_many`) whenever it holds
        :data:`RESPONSE_CHUNK` requests, between epochs and segments,
        and once at the end; a scalar segment also ends where the column
        fills.  ``responses=None`` is a warm-up: arrivals are ignored,
        nothing is recorded, idle gaps grant no ``background_work`` and
        the tracer sees no host-level calls.  The batch engine is asked
        once per replay; it declines by itself for every scheme but
        LazyFTL, under a tracer, a sanitizer, a multi-unit device and the
        rest of :func:`~repro.perf.batch.engine_for`'s list, and a timed
        replay of a timestamped trace does not use it (epochs are closed
        loop); the scalar segments then simply span the trace.

        A multi-page request is one host run op (``ftl.read_run`` /
        ``ftl.write_run``: by contract the page op once per page, in
        order, its latency the page latencies summed from 0.0), so a
        single-page request - one page op, asked directly - is the same
        arithmetic.  The planner is asked at single-page requests only:
        an epoch never starts at a multi-page one.

        This loop is where a host op starts, so it marks the boundary
        for the device's per-unit clocks (``begin_host_op``) before every
        page operation and ``background_work`` grant - skipped, once per
        replay, on a one-unit device, which never reads its clocks.  The
        per-page duties of a run (that boundary, the tracer's host event)
        go into the run op as its ``begin_page`` / ``end_page``.
        """
        ftl = self.ftl
        ftl_write = ftl.write
        ftl_read = ftl.read
        ftl_write_run = ftl.write_run
        ftl_read_run = ftl.read_run
        flash = ftl.flash
        begin_host_op = flash.begin_host_op \
            if flash.geometry.channels > 1 else None
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        n = len(ops)
        arrivals = column = append = record = tracer = host_op = None
        if responses is not None:
            arrivals = cols.arrivals
            column = array("d")  # the unrecorded responses, in trace order
            append = column.append
            record = responses.record_many  # the one recording kernel
            tracer = self.tracer
            if tracer is not None:
                host_op = tracer.host_op
        engine = None if self.replay_mode == "scalar" \
            else _batch.engine_for(ftl)
        if engine is not None and responses is not None \
                and not engine.supports(cols):
            engine = None
        min_epoch = _batch.MIN_EPOCH
        chunk = RESPONSE_CHUNK
        recorded = 0  # the requests before this one are recorded
        device_free_at = 0.0
        busy = 0.0
        i = 0
        while i < n:
            stop = n
            if record is not None:
                if len(column) >= chunk:
                    record(memoryview(ops)[recorded:i], column)
                    del column[:]
                    recorded = i
                stop = min(n, i + chunk - len(column))
            if engine is not None:
                h = engine.plan_epoch(cols, i, n) if npages[i] == 1 else 0
                if h >= min_epoch:
                    # Epochs are closed loop, where the busy total and
                    # device_free_at are the same sums of the same floats.
                    device_free_at = busy = engine.run_epoch(
                        cols, i, h, column, device_free_at)
                    i += h
                    continue
                # Scalar through the short horizon plus the boundary
                # request (the one that triggers the slow event).
                stop = min(i + h + 1, stop)
            for i in range(i, stop):
                op = ops[i]
                first_lpn = lpns[i]
                count = npages[i]
                arrival = device_free_at if arrivals is None else arrivals[i]
                if arrival != arrival:  # NaN: closed-loop request
                    arrival = device_free_at
                elif arrival > device_free_at:
                    # The device is idle until this arrival: offer the gap
                    # to the FTL's housekeeping (background GC etc.).
                    if tracer is not None:
                        tracer.set_clock(device_free_at)
                    if begin_host_op is not None:
                        begin_host_op()
                    used = ftl.background_work(arrival - device_free_at)
                    if used > 0:
                        device_free_at += used
                        busy += used
                    if tracer is not None:
                        # Idle-time housekeeping belongs to no host op:
                        # fence it so the latency recorder never folds its
                        # flash time into the next request's decomposition.
                        tracer.op_fence()
                start = device_free_at if device_free_at > arrival \
                    else arrival
                if tracer is not None:
                    if start > arrival:
                        # Open-loop wait behind the busy device: response
                        # time = queueing + service; the recorder keeps
                        # them separate.
                        tracer.queue_delay(op, start - arrival)
                    # Events of this request are stamped from its service
                    # start; flash ops advance the clock as they happen.
                    tracer.set_clock(start)
                if count == 1:
                    if begin_host_op is not None:
                        begin_host_op()
                    service = ftl_write(first_lpn, None).latency_us if op \
                        else ftl_read(first_lpn).latency_us
                    if host_op is not None:
                        host_op(op, first_lpn, service)
                elif op:
                    service = ftl_write_run(
                        first_lpn, [None] * count, begin_host_op, host_op,
                    ).latency_us
                else:
                    service = ftl_read_run(
                        first_lpn, count, begin_host_op, host_op,
                    ).latency_us
                completion = start + service
                if append is not None:
                    append(completion - arrival)
                device_free_at = completion
                busy += service
            i = stop
        if column:
            record(memoryview(ops)[recorded:], column)
        return busy
