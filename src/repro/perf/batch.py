"""Epoch-segmented batch replay: LazyFTL's no-slow-event horizon in bulk.

The replay loop makes one Python call per page operation.  This module
removes that call for LazyFTL's steady state, the traffic the paper's
structure makes cheap: writes touch RAM and the update frontier only,
reads of deferred pages hit the UMT, and translation reads happen only
on a miss - all of which can be certified in advance.
:meth:`BatchEngine.plan_epoch` answers, from position ``start`` in the
trace columns, how many upcoming single-page requests need no slow event:
it stops only at a multi-page request, an out-of-range lpn, a full UBA
frontier (conversion and GC come after it) or the checkpoint budget;
:meth:`repro.sim.simulator.Simulator._replay`, the one replay loop,
hands horizons of at least :data:`MIN_EPOCH` requests to
:meth:`BatchEngine.run_epoch` and services everything else - the short
horizons and the boundary request that triggers the slow event - with
its ordinary per-request body.

One planner, one executor, one timing kernel: the engine engages for an
exact :class:`~repro.core.lazyftl.LazyFTL` replaying a closed loop (see
:func:`engine_for`).  Ideal and DFTL replay scalar - a DFTL planner is
slower than none: every CMT miss ends an epoch, and with the default CMT
most requests miss - and so does a timestamped trace, whose
``max(device_free_at, arrival)`` queueing recurrence has no bulk form.

Bit-identity contract (enforced by the golden-stats gate and the
differential tests in ``tests/test_batch_replay.py``):

* response times come from a strictly sequential running sum seeded with
  ``device_free_at`` (``np.add.accumulate`` or
  :func:`itertools.accumulate`, never the pairwise ``np.add.reduce``),
  each recorded as the difference of two neighbours - the same additions
  and subtractions in the same order as the scalar loop;
* bulk read-counter increments use ``n * latency_us``, which equals ``n``
  repeated additions because every latency is a whole number of
  microseconds (:class:`~repro.flash.timing.TimingModel` admits no
  other);
* the numpy kernel and the pure ``array`` kernel are the same
  arithmetic, so results are identical whichever an epoch takes: its
  length picks (:data:`NUMPY_MIN_EPOCH`), and a machine without the
  ``[perf]`` extra always takes the ``array`` kernel;
* the executor never stores to the device arrays: an epoch's programs
  are one :meth:`~repro.flash.chip.NandFlash.program_run` followed by
  one ``invalidate_run`` of the copies they superseded.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import sub
from typing import Dict, Optional

from ..core.lazyftl import LazyFTL
from ..flash.chip import NandFlash
from ..flash.oob import PageKind
from ..ftl.base import FlashTranslationLayer
from ..sim.metrics import ResponseStats
from ..traces.model import Trace

try:  # pragma: no cover - exercised via both branches in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]


def backend_name() -> str:
    """The kernel long epochs take: ``"numpy"`` when numpy imports, else
    ``"fallback"`` (the ``array`` kernel)."""
    return "fallback" if _np is None else "numpy"


#: Horizons shorter than this replay scalar: below ~8 ops the epoch
#: bookkeeping (array slicing, record_many dispatch) costs more than the
#: per-op calls it saves.  Any positive value is bit-identical; this only
#: moves the crossover.
MIN_EPOCH = 8

#: Epochs shorter than this use the pure ``array`` kernel even when
#: numpy is installed: a numpy kernel invocation has ~tens of
#: microseconds of fixed cost (array creation, ufunc dispatch, masking)
#: that only amortises over long epochs.  Both kernels are bit-identical
#: by construction, so this threshold is purely a speed knob - and, with
#: whether numpy imports, the only thing that picks a kernel.
NUMPY_MIN_EPOCH = 64

def _record_closed(
    ops_slice: memoryview,
    services: "array[float]",
    responses: ResponseStats,
    device_free_at: float,
) -> float:
    """The timing kernel: record one closed-loop epoch's responses and
    return the advanced ``device_free_at``.

    The scalar loop computes ``completion = device_free_at + service``
    and records ``completion - device_free_at``; with a running sum
    ``acc = [dfa, dfa + s0, (dfa + s0) + s1, ...]`` the recorded response
    is ``acc[k+1] - acc[k]`` - the identical subtraction of the identical
    floats, so the bulk form is bit-exact.
    """
    h = len(services)
    if _np is not None and h >= NUMPY_MIN_EPOCH:
        acc = _np.empty(h + 1)
        acc[0] = device_free_at
        acc[1:] = _np.frombuffer(services, dtype=_np.float64)
        _np.add.accumulate(acc, out=acc)
        responses.record_many(ops_slice, acc[1:] - acc[:h])
        return float(acc[h])
    run = array("d", accumulate(services, initial=device_free_at))
    responses.record_many(ops_slice, array("d", map(sub, run[1:], run[:h])))
    return run[h]


def engine_for(ftl: FlashTranslationLayer) -> Optional["BatchEngine"]:
    """A :class:`BatchEngine` for ``ftl``, or None when ineligible.

    Ineligible (replay stays scalar): any scheme but an exact
    :class:`~repro.core.lazyftl.LazyFTL` (a subclass may override
    read/write and silently diverge from the bulk executor), a flash
    subclass (the sanitizer audits every raw op; epochs count reads in
    bulk), a tracer on the FTL (it must see per-op events), a device
    with more than one channel (an epoch is one run on the block
    ``Frontier.peek`` names, timed on one clock; the striped UBA rotates
    over several), or a device that takes no runs
    (:meth:`~repro.flash.chip.NandFlash.takes_runs` - the one statement
    of: powered, no armed fault since the trip point must be a
    per-request boundary, no ``serialize_timing``).
    """
    if type(ftl) is not LazyFTL:
        return None
    flash = ftl.flash
    if type(flash) is not NandFlash or ftl._tracer is not None:
        return None
    if flash.geometry.channels > 1 or not flash.takes_runs():
        return None
    return BatchEngine(ftl)


class BatchEngine:
    """LazyFTL's epoch planner and executor: the single-page horizon,
    bounded by UBA frontier room and the periodic-checkpoint budget.

    Every single-page read is batchable: a UMT hit is one data read, a
    GMT-resident read a stateless GTD probe plus at most two."""

    __slots__ = ("ftl", "flash", "read_us", "program_us", "logical_pages",
                 "entries_per_page")

    def __init__(self, ftl: LazyFTL):
        self.ftl = ftl
        self.flash = ftl.flash
        timing = ftl.flash.timing
        self.read_us = timing.page_read_us
        self.program_us = timing.page_program_us
        self.logical_pages = ftl.logical_pages
        self.entries_per_page = ftl.entries_per_page

    @staticmethod
    def supports(cols: Trace) -> bool:
        """True when this trace can be timed in epochs: closed loop only.

        A timestamped trace queues behind the busy device and hands idle
        gaps to ``background_work``; it replays in the scalar segment.
        """
        return cols.arrivals is None

    def plan_epoch(self, cols: Trace, start: int, limit: int) -> int:
        """How many requests from ``start`` can be serviced with no slow
        event (0 when the one at ``start`` cannot)."""
        ftl = self.ftl
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
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
        j = start
        while j < limit:
            if npages[j] != 1:
                break
            lpn = lpns[j]
            if lpn < 0 or lpn >= logical:
                break  # scalar path raises the proper range error
            if ops[j]:
                if room <= 0:
                    break  # frontier full / conversion / checkpoint due
                room -= 1
            j += 1
        return j - start

    def _execute(self, cols: Trace, start: int, h: int) -> "array[float]":
        """Apply the planned epoch's state changes; return its services."""
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        read_us = self.read_us
        program_us = self.program_us
        page_data = flash.page_data
        umt = ftl._umt
        ppn_at = umt.ppn_at
        gtd_get = ftl._maps.gtd.get
        entries_per_page = self.entries_per_page
        frontier = ftl._uba_frontier.peek()
        # The planner guarantees a write-free epoch when there is no
        # frontier block, so first_ppn is then never used.
        first_ppn = -1 if frontier is None else \
            frontier * ftl._pages_per_block + flash.write_ptr[frontier]
        ppn = first_ppn
        last: Dict[int, int] = {}  # lpn -> ppn of its newest epoch write
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
                tppn = gtd_get(lpn // entries_per_page)
                if tppn is None:
                    services[k] = 0.0  # unmapped read, no GMT page
                else:
                    content = page_data[tppn]
                    map_reads += 1
                    flash_reads += 1
                    if content[lpn % entries_per_page] >= 0:
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
            # Programs go first so a page written and overwritten inside
            # the epoch is VALID by the time its invalidate arrives;
            # programs and invalidates of different pages commute, so the
            # end state equals the scalar interleaving.
            flash.program_run(first_ppn, [None] * n_writes, written,
                              ftl._seq.take(n_writes), PageKind.DATA, False)
            flash.invalidate_run(stale)
            umt.set_many(last.items())
            if ftl._ckpt_interval > 0:
                ftl._writes_since_checkpoint += n_writes
        if flash_reads:
            fstats.page_reads += flash_reads
            fstats.read_us += flash_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += h - n_writes
        stats.map_reads += map_reads
        return services

    def run_epoch(
        self,
        cols: Trace,
        start: int,
        h: int,
        responses: Optional[ResponseStats],
        device_free_at: float,
    ) -> float:
        """Service the planned ``h``-request epoch at ``start`` in bulk.

        Records the responses and returns the advanced ``device_free_at``
        exactly as ``h`` turns of the scalar loop would (in a closed loop
        the device-busy total is the same float); ``responses=None`` is a
        warm-up - state only, no timing.
        """
        services = self._execute(cols, start, h)
        if responses is None:
            return device_free_at
        return _record_closed(memoryview(cols.ops)[start:start + h],
                              services, responses, device_free_at)
