"""Epoch-segmented batch replay: vectorized kernels for the no-GC fast path.

PR 3/4 made the replay loop columnar; the remaining cost is one Python
call per page operation.  This module removes it for the steady state:
an FTL scheme that opts in exposes an **epoch planner** which answers,
from position ``start`` in the trace columns, *how many upcoming
single-page requests it can service with no slow event* - no GC trigger,
no mapping-cache miss or eviction, no mapping commit, no frontier-block
exhaustion - and a **batch executor** that services that whole horizon
in bulk (map tables via :meth:`~repro.perf.maptable.MapTable.set_many`,
flash/FTL counters bulk-incremented, responses recorded through
:meth:`~repro.sim.metrics.ResponseStats.record_many`).

The replay loop itself lives in one place,
:meth:`repro.sim.simulator.Simulator._replay`: it asks the planner for a
horizon, hands horizons of at least :data:`MIN_EPOCH` requests to
:meth:`BatchEngine.run_epoch`, and services everything else - the short
horizons and the boundary request that would trigger the slow event (GC,
commit, eviction and multi-page expansion all happen there) - with its
ordinary per-request body, then plans again.  This module holds only what
is batch-specific: eligibility, the planners and executors, and the epoch
timing kernels.

Bit-identity contract (enforced by the golden-stats gate and the
differential tests in ``tests/test_batch_replay.py``):

* response times accumulate via ``np.add.accumulate`` (strictly
  sequential, unlike pairwise ``np.add.reduce``) seeded with the running
  ``device_free_at`` / busy totals, so every float is produced by the
  same additions in the same order as the scalar loop;
* bulk counter increments use ``n * latency_us`` only when the timing
  model's latencies are integer-valued floats (all shipped models), in
  which case repeated addition and multiplication agree exactly -
  non-integer timings disable batching entirely;
* the numpy kernels and the pure ``array``/``memoryview`` fallback are
  the same arithmetic, so results are identical with or without the
  ``[perf]`` extra installed.

Eligibility is conservative (see :func:`engine_for`): batching engages
only for an exact :class:`~repro.flash.chip.NandFlash` (the sanitized
subclass replays scalar) with one parallel unit, no tracer attached, the
power-fault injector disarmed, and a scheme registered in
:data:`PLANNERS`.  Log-block schemes (BAST, FAST, LAST, NFTL, superblock)
declare no planner and transparently stay scalar.

Executors never touch device state themselves: an epoch's programs are
one :meth:`~repro.flash.chip.NandFlash.program_run` (the frontier block's
pages, in order) followed by one ``invalidate_run`` of the copies they
superseded - all NAND semantics stay in the device.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Optional, Tuple, Type

from ..core.lazyftl import LazyFTL
from ..flash.chip import NandFlash
from ..flash.oob import PageKind, run_oobs
from ..ftl.base import FlashTranslationLayer
from ..ftl.dftl import DftlFTL
from ..ftl.pure_page import PageFTL
from ..sim.metrics import ResponseStats
from ..traces.model import Trace

try:  # pragma: no cover - exercised via both branches in CI
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None  # type: ignore[assignment]

#: Active backend: the numpy module, or None for the array/memoryview
#: fallback.  Module-global so tests can monkeypatch it and so every
#: kernel observes one consistent choice.
_np: Any = _numpy


def set_backend(name: str) -> None:
    """Select the kernel backend: ``"numpy"``, ``"fallback"`` or ``"auto"``.

    ``"auto"`` restores the default (numpy when importable, else the
    fallback).  Raises when ``"numpy"`` is requested but not installed
    (install the ``[perf]`` extra).
    """
    global _np
    if name == "fallback":
        _np = None
    elif name == "numpy":
        if _numpy is None:
            raise RuntimeError(
                "numpy backend requested but numpy is not installed; "
                "install the [perf] extra"
            )
        _np = _numpy
    elif name == "auto":
        _np = _numpy
    else:
        raise ValueError(f"unknown batch backend {name!r}")


def backend_name() -> str:
    """The active backend: ``"numpy"`` or ``"fallback"``."""
    return "fallback" if _np is None else "numpy"


#: Horizons shorter than this replay scalar: below ~8 ops the epoch
#: bookkeeping (array slicing, record_many dispatch) costs more than the
#: per-op calls it saves.  Any positive value is bit-identical; this only
#: moves the crossover.
MIN_EPOCH = 8

#: Epochs shorter than this use the pure ``array`` kernels even when
#: numpy is installed: a numpy kernel invocation has ~tens of
#: microseconds of fixed cost (array creation, ufunc dispatch, masking)
#: that only amortises over long epochs, while the fallback loop's cost
#: is linear from the first element.  Both backends are bit-identical by
#: construction, so this threshold is purely a speed knob.
NUMPY_MIN_EPOCH = 64

_DATA = PageKind.DATA


# ----------------------------------------------------------------------
# Timing kernels: the closed-loop cumulative-sum recurrence and the
# open-loop max-plus recurrence.  Both consume one epoch's per-op
# service latencies and update (device_free_at, busy) exactly as the
# scalar loop would.
# ----------------------------------------------------------------------
def _timing_closed(
    ops_slice: memoryview,
    services: Any,
    responses: ResponseStats,
    device_free_at: float,
    busy: float,
) -> Tuple[float, float]:
    """Closed-loop epoch timing: response == service, back-to-back.

    The scalar loop computes ``completion = device_free_at + service``
    and records ``completion - device_free_at``; with a cumulative sum
    ``acc = accumulate([dfa, s0, s1, ...])`` the recorded response is
    ``acc[k+1] - acc[k]`` - the identical subtraction of the identical
    floats, so the vectorized form is bit-exact.
    """
    h = len(services)
    if _np is not None and h >= NUMPY_MIN_EPOCH:
        acc = _np.empty(h + 1)
        acc[0] = device_free_at
        acc[1:] = services
        _np.add.accumulate(acc, out=acc)
        resp = acc[1:] - acc[:h]
        responses.record_many(ops_slice, resp)
        total = float(acc[h])
        if busy == device_free_at:
            # Pure closed-loop replay keeps busy == device_free_at at
            # every step (both accumulate exactly the same services from
            # the same start), so the second accumulate would recompute
            # the identical float.
            return total, total
        bacc = _np.empty(h + 1)
        bacc[0] = busy
        bacc[1:] = services
        _np.add.accumulate(bacc, out=bacc)
        return total, float(bacc[h])
    resp_arr = array("d", bytes(8 * h))
    sv = memoryview(services)
    if busy == device_free_at:
        for k in range(h):
            completion = device_free_at + sv[k]
            resp_arr[k] = completion - device_free_at
            device_free_at = completion
        busy = device_free_at
    else:
        for k in range(h):
            service = sv[k]
            completion = device_free_at + service
            resp_arr[k] = completion - device_free_at
            device_free_at = completion
            busy += service
    responses.record_many(ops_slice, resp_arr)
    return device_free_at, busy


def _timing_open(
    ops_slice: memoryview,
    arrivals: Any,
    base: int,
    services: Any,
    responses: ResponseStats,
    device_free_at: float,
    busy: float,
) -> Tuple[float, float]:
    """Open-loop epoch timing: the max-plus queueing recurrence.

    ``start = max(device_free_at, arrival)`` makes each step depend on
    the previous completion through a non-associative max, so this stays
    a tight Python loop over the precomputed service array on both
    backends (the services are where the batch win lives; the recurrence
    itself is cheap).  Planners only run open-loop epochs when the
    scheme's ``background_work`` is a guaranteed no-op, so skipping the
    idle-gap call below cannot diverge from the scalar loop.
    """
    h = len(services)
    resp_arr = array("d", bytes(8 * h))
    sv = memoryview(services)
    for k in range(h):
        arrival = arrivals[base + k]
        service = sv[k]
        if arrival != arrival:  # NaN: closed-loop request
            arrival = device_free_at
        start = device_free_at if device_free_at > arrival else arrival
        completion = start + service
        resp_arr[k] = completion - arrival
        device_free_at = completion
        busy += service
    if _np is not None and h >= NUMPY_MIN_EPOCH:
        responses.record_many(
            ops_slice, _np.frombuffer(resp_arr, dtype=_np.float64)
        )
    else:
        responses.record_many(ops_slice, resp_arr)
    return device_free_at, busy


# ----------------------------------------------------------------------
# Per-scheme planners + executors
# ----------------------------------------------------------------------
def _program_epoch(ftl: Any, first_ppn: int, written: list,
                   stale: list) -> None:
    """Apply one epoch's writes to the device: the frontier run (``written``
    lpns in program order on consecutive sequence numbers; replayed
    payloads are None), then the copies those writes superseded.

    Programs go first so a page written and overwritten inside the same
    epoch is VALID by the time its invalidate arrives; programs and
    invalidates of different pages commute, so the end state equals the
    scalar interleaving.
    """
    flash = ftl.flash
    flash.program_run(first_ppn, [None] * len(written), run_oobs(
        written, ftl._seq.take(len(written)), _DATA, False))
    flash.invalidate_run(stale)


class _PagePlanner:
    """Ideal page-mapping FTL: the whole map is in RAM, so an epoch is
    bounded only by active-block room (writes) and mappedness (reads)."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "idle_gaps_free")

    def __init__(self, ftl: PageFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.idle_gaps_free = True  # base background_work is a no-op

    def plan_epoch(self, cols: Trace, start: int, limit: int) -> int:
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        raw = ftl._map.raw
        active = ftl._active.peek()
        room = 0
        if active is not None:
            room = ftl._pages_per_block - self.flash.write_ptr[active]
        logical = self.logical_pages
        written: set = set()
        j = start
        while j < limit:
            if npages[j] != 1:
                break
            lpn = lpns[j]
            if lpn < 0 or lpn >= logical:
                break  # scalar path raises the proper range error
            if ops[j]:
                if room <= 0:
                    break  # active full/absent: opening one may GC
                room -= 1
                if raw[lpn] < 0:
                    written.add(lpn)
            elif raw[lpn] < 0 and lpn not in written:
                break  # unmapped read: rare; keep the epoch all-mapped
            j += 1
        return j - start

    def execute_epoch(self, cols: Trace, start: int, h: int) -> Any:
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        read_us = self.read_us
        program_us = self.program_us
        active = ftl._active.peek()
        # Planner guarantees a write-free epoch when there is no active
        # block, so first_ppn is then never used.
        first_ppn = -1 if active is None else ftl._frontier(active)
        ppn = first_ppn
        raw = ftl._map.raw
        last: Dict[int, int] = {}  # lpn -> ppn of its newest epoch write
        written: list = []  # lpn of each epoch write, in program order
        stale: list = []  # superseded ppns, in write order
        end = start + h
        j = start
        while j < end:
            if ops[j]:
                lpn = lpns[j]
                written.append(lpn)
                old = last.get(lpn, -1)
                if old < 0:
                    old = raw[lpn]
                if old >= 0:
                    stale.append(old)
                last[lpn] = ppn
                ppn += 1
            j += 1
        stats = ftl.stats
        fstats = flash.stats
        n_writes = len(written)
        if n_writes:
            _program_epoch(ftl, first_ppn, written, stale)
            ftl._map.set_many(last.items())
        n_reads = h - n_writes
        if n_reads:
            fstats.page_reads += n_reads
            fstats.read_us += n_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += n_reads
        if _np is not None and h >= NUMPY_MIN_EPOCH:
            ops_np = _np.frombuffer(ops, dtype=_np.int8)[start:end]
            return _np.where(ops_np != 0, program_us, read_us)
        services = array("d", bytes(8 * h))
        j = start
        k = 0
        while j < end:
            services[k] = program_us if ops[j] else read_us
            j += 1
            k += 1
        return services


class _DftlPlanner:
    """DFTL: an epoch must stay entirely inside the CMT (a miss fetches a
    translation page and may evict) and inside the data frontier block."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "idle_gaps_free")

    def __init__(self, ftl: DftlFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.idle_gaps_free = True  # base background_work is a no-op

    def plan_epoch(self, cols: Trace, start: int, limit: int) -> int:
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        cmt = ftl._cmt
        active = ftl._data_active.peek()
        room = 0
        if active is not None:
            room = ftl._pages_per_block - self.flash.write_ptr[active]
        logical = self.logical_pages
        j = start
        while j < limit:
            if npages[j] != 1:
                break
            lpn = lpns[j]
            if lpn < 0 or lpn >= logical:
                break
            if lpn not in cmt:
                break  # CMT miss: _make_room may evict + flash fetch
            if ops[j]:
                if room <= 0:
                    break  # frontier exhausted: allocation may GC
                room -= 1
            j += 1
        return j - start

    def execute_epoch(self, cols: Trace, start: int, h: int) -> Any:
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        read_us = self.read_us
        program_us = self.program_us
        cmt = ftl._cmt
        move_to_end = cmt.move_to_end
        mark_dirty = ftl._mark_dirty
        active = ftl._data_active.peek()
        # Planner guarantees a write-free epoch when there is no active
        # block, so first_ppn is then never used.
        first_ppn = -1 if active is None else (
            active * ftl._pages_per_block + flash.write_ptr[active])
        ppn = first_ppn
        none_reads: list = []  # epoch offsets of unmapped (ppn None) reads
        written: list = []  # lpn of each epoch write, in program order
        stale: list = []  # superseded ppns, in write order
        end = start + h
        j = start
        while j < end:
            lpn = lpns[j]
            entry = cmt[lpn]
            if ops[j]:
                written.append(lpn)
                if entry.ppn is not None:
                    stale.append(entry.ppn)
                entry.ppn = ppn
                mark_dirty(lpn, entry)
                ppn += 1
            elif entry.ppn is None:
                none_reads.append(j - start)
            move_to_end(lpn)
            j += 1
        stats = ftl.stats
        fstats = flash.stats
        n_writes = len(written)
        if n_writes:
            _program_epoch(ftl, first_ppn, written, stale)
        n_reads = h - n_writes
        data_reads = n_reads - len(none_reads)
        if data_reads:
            fstats.page_reads += data_reads
            fstats.read_us += data_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += n_reads
        if _np is not None and h >= NUMPY_MIN_EPOCH:
            ops_np = _np.frombuffer(ops, dtype=_np.int8)[start:end]
            services = _np.where(ops_np != 0, program_us, read_us)
            if none_reads:
                services[none_reads] = 0.0
            return services
        services_arr = array("d", bytes(8 * h))
        j = start
        k = 0
        while j < end:
            services_arr[k] = program_us if ops[j] else read_us
            j += 1
            k += 1
        for k in none_reads:
            services_arr[k] = 0.0
        return services_arr


class _LazyPlanner:
    """LazyFTL: the UMT-hit horizon, bounded by UBA frontier room and the
    periodic-checkpoint budget.  This is where the paper's structure pays
    off: writes touch RAM + the update frontier only, reads of deferred
    pages hit the UMT, and translation reads happen only on a miss - all
    of which the planner can certify in advance.

    GMT-resident reads stay batchable when the ablation cache is off
    (a stateless GTD probe + at most two flash reads); with the cache
    enabled, cached pages replay their recency via ``touch_many`` and a
    cache *miss* ends the epoch (``put`` mutates the LRU)."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "entries_per_page", "idle_gaps_free")

    def __init__(self, ftl: LazyFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.entries_per_page = ftl.entries_per_page
        # With background GC enabled, open-loop idle gaps do real work;
        # the engine then replays timestamped traces entirely scalar.
        self.idle_gaps_free = not ftl.config.background_gc

    def plan_epoch(self, cols: Trace, start: int, limit: int) -> int:
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        umt_ppn = ftl._umt._ppn
        umt_len = len(umt_ppn)
        maps = ftl._maps
        cache_on = maps.cache_pages > 0
        cache_data = maps._cache._data
        entries_per_page = self.entries_per_page
        frontier = ftl._uba_frontier.peek()
        room = 0
        if frontier is not None:
            room = ftl._pages_per_block - self.flash.write_ptr[frontier]
        interval = ftl._ckpt_interval
        if interval > 0:
            # _periodic_checkpoint increments *then* compares, so the
            # last free write is the one landing the counter at
            # interval - 1.
            budget = interval - ftl._writes_since_checkpoint - 1
            if budget < room:
                room = budget
            if room < 0:
                room = 0
        logical = self.logical_pages
        written: set = set()
        j = start
        while j < limit:
            if npages[j] != 1:
                break
            lpn = lpns[j]
            if lpn < 0 or lpn >= logical:
                break
            if ops[j]:
                if room <= 0:
                    break  # frontier full / conversion / checkpoint due
                room -= 1
                written.add(lpn)
            elif (lpn >= umt_len or umt_ppn[lpn] < 0) \
                    and lpn not in written:
                # GMT path: stateless unless the ablation cache would
                # admit a new page.
                if cache_on and (lpn // entries_per_page) not in cache_data:
                    break
            j += 1
        return j - start

    def execute_epoch(self, cols: Trace, start: int, h: int) -> Any:
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        read_us = self.read_us
        program_us = self.program_us
        page_data = flash.page_data
        umt = ftl._umt
        ppn_at = umt.ppn_at
        maps = ftl._maps
        gtd_get = maps.gtd.get
        cache_on = maps.cache_pages > 0
        cache_data = maps._cache._data
        entries_per_page = self.entries_per_page
        frontier = ftl._uba_frontier.peek()
        # Planner guarantees a write-free epoch when there is no frontier
        # block, so first_ppn is then never used.
        first_ppn = -1 if frontier is None else \
            frontier * ftl._pages_per_block + flash.write_ptr[frontier]
        ppn = first_ppn
        last: Dict[int, int] = {}  # lpn -> ppn of its newest epoch write
        touched_tvpns: list = []  # cache hits, in access order
        services = array("d", bytes(8 * h))
        written: list = []  # lpn of each epoch write, in program order
        stale: list = []  # superseded UBA/CBA ppns, in write order
        map_reads = 0
        flash_reads = 0
        end = start + h
        j = start
        k = 0
        while j < end:
            lpn = lpns[j]
            if ops[j]:
                old = last.get(lpn, -1)
                if old < 0:
                    old = ppn_at(lpn)
                written.append(lpn)
                if old >= 0:
                    # Old copy in UBA/CBA: invalidated with the epoch's
                    # programs (GMT copies are invalidated lazily at
                    # commit, exactly as the scalar path defers them).
                    stale.append(old)
                last[lpn] = ppn
                ppn += 1
                services[k] = program_us
            elif lpn in last or ppn_at(lpn) >= 0:
                services[k] = read_us  # UMT hit: one data read
                flash_reads += 1
            else:
                tvpn = lpn // entries_per_page
                if cache_on:
                    content = cache_data[tvpn]  # planner-certified hit
                    touched_tvpns.append(tvpn)
                    if content[lpn % entries_per_page] is not None:
                        services[k] = read_us
                        flash_reads += 1
                    else:
                        services[k] = 0.0  # unmapped read, cache answered
                else:
                    tppn = gtd_get(tvpn)
                    if tppn is None:
                        services[k] = 0.0  # unmapped read, no GMT page
                    else:
                        content = page_data[tppn]
                        map_reads += 1
                        flash_reads += 1
                        if content[lpn % entries_per_page] is not None:
                            services[k] = read_us + read_us
                            flash_reads += 1
                        else:
                            services[k] = read_us  # translation read only
            j += 1
            k += 1
        stats = ftl.stats
        fstats = flash.stats
        n_writes = len(written)
        if n_writes:
            _program_epoch(ftl, first_ppn, written, stale)
            umt.set_many(last.items())
            if ftl._ckpt_interval > 0:
                ftl._writes_since_checkpoint += n_writes
        if touched_tvpns:
            maps._cache.touch_many(touched_tvpns)
        if flash_reads:
            fstats.page_reads += flash_reads
            fstats.read_us += flash_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += h - n_writes
        stats.map_reads += map_reads
        if _np is not None and h >= NUMPY_MIN_EPOCH:
            return _np.frombuffer(services, dtype=_np.float64)
        return services


#: Scheme -> planner, keyed by *exact* type: subclasses may override
#: read/write and silently diverge from the executor's bulk replay, so
#: they replay scalar unless they register their own planner.
PLANNERS: Dict[Type[FlashTranslationLayer], type] = {
    PageFTL: _PagePlanner,
    DftlFTL: _DftlPlanner,
    LazyFTL: _LazyPlanner,
}


def engine_for(ftl: FlashTranslationLayer) -> Optional["BatchEngine"]:
    """A :class:`BatchEngine` for ``ftl``, or None when ineligible.

    Ineligible (replay stays scalar): unregistered scheme, a flash
    subclass (the sanitizer audits every raw op; epochs count reads in
    bulk), a tracer on the FTL, or a device that takes no runs
    (:meth:`~repro.flash.chip.NandFlash.takes_runs` - the one statement
    of: powered, no armed fault since the trip point must be a
    per-request boundary, no tracer since it must see per-op events, one
    parallel unit since an epoch is one run on the block
    ``Frontier.peek`` names timed on one clock, integer-valued latencies
    since bulk ``n * latency`` must be bit-exact).
    """
    planner_cls = PLANNERS.get(type(ftl))
    if planner_cls is None:
        return None
    flash = ftl.flash
    if type(flash) is not NandFlash or ftl._tracer is not None:
        return None
    if not flash.takes_runs():
        return None
    return BatchEngine(planner_cls(ftl))


class BatchEngine:
    """What the replay driver needs from an eligible scheme: the planner's
    horizon, and one call that executes an epoch and times it."""

    __slots__ = ("planner", "plan_epoch")

    def __init__(self, planner: Any):
        self.planner = planner
        #: ``plan_epoch(cols, start, limit) -> h``: how many upcoming
        #: requests can be serviced with no slow event.
        self.plan_epoch = planner.plan_epoch

    def supports(self, cols: Trace) -> bool:
        """True when this trace's arrival pattern can use epochs at all.

        Timestamped traces hand idle gaps to ``background_work``; if the
        scheme actually uses them (LazyFTL with background GC), every
        request must flow through the scalar path.
        """
        return cols.arrivals is None or self.planner.idle_gaps_free

    def run_epoch(
        self,
        cols: Trace,
        start: int,
        h: int,
        responses: Optional[ResponseStats],
        device_free_at: float,
        busy: float,
    ) -> Tuple[float, float]:
        """Service the planned ``h``-request epoch at ``start`` in bulk.

        Records the responses and returns the advanced
        ``(device_free_at, busy)`` exactly as ``h`` turns of the scalar
        loop would; ``responses=None`` is a warm-up - state only, no
        timing.
        """
        services = self.planner.execute_epoch(cols, start, h)
        if responses is None:
            return device_free_at, busy
        ops_slice = memoryview(cols.ops)[start:start + h]
        if cols.arrivals is None:
            return _timing_closed(
                ops_slice, services, responses, device_free_at, busy)
        return _timing_open(
            ops_slice, cols.arrivals, start, services, responses,
            device_free_at, busy)
