"""Epoch-segmented batch replay: LazyFTL's no-slow-event horizon in bulk.

The replay loop makes one Python call per page operation.  This module
removes that call for LazyFTL's steady state, the traffic the paper's
structure makes cheap: writes touch RAM and the update frontier only,
reads of deferred pages hit the UMT, and translation reads happen only
on a miss.  :meth:`BatchEngine.run` is one pass over the trace columns
that tests each request's stop rule and collects its service, then
applies the horizon it walked as one epoch, however short;
:meth:`repro.sim.simulator.Simulator._replay`, the one replay loop,
serves the boundary request that triggers the slow event as one scalar
turn.

The engine engages for an exact :class:`~repro.core.lazyftl.LazyFTL`
replaying a closed loop (see :func:`engine_for`), and an epoch's
responses go to the replay's one response column, recorded with the
scalar turns' in chunks (:data:`repro.sim.simulator.RESPONSE_CHUNK`).
Ideal and DFTL replay scalar - a DFTL engine is slower than none: every
CMT miss ends an epoch, and with the default CMT most requests miss -
and so does a timestamped trace, whose ``max(device_free_at, arrival)``
queueing recurrence has no bulk form.

Bit-identity contract (enforced by the golden-stats gate and the
differential tests in ``tests/test_batch_replay.py``):

* every latency is a whole number of microseconds
  (:class:`~repro.flash.timing.TimingModel` admits no other), so bulk
  read-counter increments use ``n * latency_us``, which equals ``n``
  repeated additions, and a closed-loop ``device_free_at`` - a sum of
  services - is a whole number too: the scalar loop's response
  ``(device_free_at + s) - device_free_at`` is exactly ``s``.  An epoch
  appends its services to the column as its responses and advances
  ``device_free_at`` by their sum - its programs and flash reads times
  their latencies, which any association of the whole numbers gives;
* the pass only reads FTL and device state, and every bulk step after
  it is empty for a horizon of zero requests, which thus changes
  nothing; an epoch's programs are one
  :meth:`~repro.flash.chip.NandFlash.program_run` followed by one
  ``invalidate_run`` of the copies they superseded.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Tuple

from ..core.lazyftl import LazyFTL
from ..flash.chip import NandFlash
from ..flash.oob import PageKind
from ..ftl.base import FlashTranslationLayer
from ..traces.model import Trace


def backend_name() -> str:
    """The recording kernel's name, kept for the benchmark's run record:
    every response column is recorded on numpy
    (:meth:`~repro.sim.metrics.ResponseStats.record_many`)."""
    return "numpy"


def engine_for(ftl: FlashTranslationLayer) -> Optional["BatchEngine"]:
    """A :class:`BatchEngine` for ``ftl``, or None when ineligible.

    Ineligible (replay stays scalar): any scheme but an exact
    :class:`~repro.core.lazyftl.LazyFTL` (a subclass may override
    read/write and silently diverge from the bulk epoch), a flash
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
    """LazyFTL's epoch engine: the single-page horizon, bounded by UBA
    frontier room and the periodic-checkpoint budget, served in one pass.

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

    def run(
        self,
        cols: Trace,
        start: int,
        limit: int,
        column: Optional["array[float]"],
        device_free_at: float,
    ) -> Tuple[int, float]:
        """Serve the single-page requests from ``start`` (before
        ``limit``) that need no slow event, in one pass, as one epoch:
        its state changes are made, its responses appended to ``column``
        and ``(h, device_free_at)`` returned advanced by their sum -
        exactly ``h`` turns of the scalar loop (in a closed loop the
        device-busy total is the same float); ``h`` = 0 changes nothing.
        ``column=None`` is a warm-up: state only, no timing.

        A request stops the horizon when it spans several pages, names an
        out-of-range lpn (the scalar turn raises the range error) or is a
        write with no UBA frontier room or checkpoint budget left
        (conversion, GC or the checkpoint come after it)."""
        ftl = self.ftl
        flash = self.flash
        ops = cols.ops
        lpns = cols.lpns
        npages = cols.npages
        read_us = self.read_us
        program_us = self.program_us
        page_data = flash.page_data
        umt = ftl._umt
        ppn_at = umt.ppn_at
        gtd_get = ftl._maps.gtd.get
        entries_per_page = self.entries_per_page
        logical = self.logical_pages
        frontier = ftl._uba_frontier.peek()
        room = 0  # no frontier block: the first write stops the horizon
        first_ppn = -1
        if frontier is not None:
            ptr = flash.write_ptr[frontier]
            room = ftl._pages_per_block - ptr
            first_ppn = frontier * ftl._pages_per_block + ptr
        interval = ftl._ckpt_interval
        if interval > 0:
            # _periodic_checkpoint increments *then* compares, so the
            # last free write is the one landing the counter at
            # interval - 1.
            room = min(room, interval - ftl._writes_since_checkpoint - 1)
        ppn = first_ppn
        last: Dict[int, int] = {}  # lpn -> ppn of its newest epoch write
        services = array("d")
        serve = services.append
        written: list = []  # lpn of each epoch write, in program order
        stale: list = []  # superseded UBA/CBA ppns, in write order
        map_reads = 0
        flash_reads = 0
        j = start
        while j < limit:
            lpn = lpns[j]
            if npages[j] != 1 or lpn < 0 or lpn >= logical:
                break
            if ops[j]:
                if room <= 0:
                    break
                room -= 1
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
                serve(program_us)
            elif lpn in last or ppn_at(lpn) >= 0:
                serve(read_us)  # UMT hit: one data read
                flash_reads += 1
            else:
                tppn = gtd_get(lpn // entries_per_page)
                if tppn is None:
                    serve(0.0)  # unmapped read, no GMT page
                else:
                    map_reads += 1
                    flash_reads += 1
                    if page_data[tppn][lpn % entries_per_page] >= 0:
                        serve(read_us + read_us)
                        flash_reads += 1
                    else:
                        serve(read_us)  # translation read only
            j += 1
        h = j - start
        stats = ftl.stats
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
            if interval > 0:
                ftl._writes_since_checkpoint += n_writes
        if flash_reads:
            fstats = flash.stats
            fstats.page_reads += flash_reads
            fstats.read_us += flash_reads * read_us
        stats.host_writes += n_writes
        stats.host_reads += h - n_writes
        stats.map_reads += map_reads
        if column is None:
            return h, device_free_at
        column += services
        return h, device_free_at + (n_writes * program_us
                                    + flash_reads * read_us)
