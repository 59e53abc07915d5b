"""The simulated NAND flash device.

:class:`NandFlash` exposes exactly the raw operations an FTL can issue -
``read_page``, ``program_page``, ``erase_block`` plus the simulator-level
``invalidate_page`` bookkeeping - enforces NAND constraints, charges latency
per the timing model, and supports power-loss injection for recovery tests.
Three *run ops* (``read_run``, ``program_run``, ``invalidate_run``) do
the same operations many pages at a time - see "Run ops" below.

Device state is struct-of-arrays: one state byte, one payload slot and
four OOB columns (lpn, seq, kind, cold flag) per ppn, and one write
pointer / valid count / erase count / bad flag per block.  Each raw
operation is a single method - power, fault, range, bad-block and NAND-rule
checks, a few array stores, the stats update, the clock charge and an ``if
tracer is not None`` emit - and it is the only place that operation's
semantics are written down.  A refusal that enforces
a NAND rule names it (:attr:`~repro.flash.errors.FlashError.rule`); the
flashsan sanitizer calls the op through ``super()`` and reports that name.
The map events are stated here too: a read or program of a page whose OOB
kind is ``MAPPING`` emits ``MapRead`` / ``MapWrite`` (``lpn`` = its tvpn)
right after its ``PageRead`` / ``PageProgram``, so no FTL writes them.

Every operation returns its latency in microseconds; FTLs sum these into the
service time of the host request they are working on.

Timing model
------------

One *busy-until* clock per parallel unit - a channel
(:attr:`FlashGeometry.channels`) - relative to the start of the current
host operation - :meth:`NandFlash.begin_host_op`, marked by the replay
driver, never by an FTL.  Each raw op is charged in one place
(:meth:`NandFlash._charge`), after the ``FlashStats`` update - which stays
*raw*: device work, wear and energy do not depend on overlap - and before
the tracer emit: it starts when its unit is free (the optimistic end of
real controller pipelines) and returns, and traces, only the *delta* by
which it extends the host op's makespan, so the latencies of one host op
sum to that makespan under perfect per-unit queueing.  With one unit
``delta == raw`` always, so the charge sits behind a single ``units > 1``
test instead of being a second device class.

An op's *channel wait* - how much longer its unit was busy than the
least-busy one at issue, i.e. stripe imbalance - goes to an attached tracer
just before the op's own event and stays outside the service-time
decomposition.  ``serialize_timing = True`` starts every op at the current
makespan instead of its unit clock, while the unit clocks - which the
write frontier places pages by - still advance as when overlapped: serial
timing on unchanged placement, the lever the property tests use to tell
the two apart.

Run ops
-------

A *run* is a list of pages moved together (a GC victim's live pages bound
for the frontier's open blocks, the GMT pages of one commit, the data
pages of a host read between two GMT fetches).  Each run op
is, by contract, **its scalar op called once per page, in order**: same
state bytes, same ``FlashStats`` (a run's latency sum is the exact
product, since every latency is integer-valued), same unit clocks, same
returned values, same exception raised at the same page with every earlier
page done.  The bulk stores are taken only when the whole run is plainly
legal; anything else *is* the per-page calls, through ``self`` so subclass
overrides apply.

==================  ===================  ==================================
run op              n calls of           bulk path needs
==================  ===================  ==================================
``read_run``        ``read_page``        :meth:`NandFlash.takes_runs`; no
                                         tracer; every page in range and
                                         programmed
``program_run``     ``read_page`` of     :meth:`NandFlash.takes_runs`; no
                    ``reads[i]`` (if     tracer; every read programmed;
                    any), then           per good block, its pages
                    ``program_page``     contiguous from its write
                    (OOB ``lpns[i]``,    pointer, every one FREE
                    ``first_seq + i``)
``invalidate_run``  ``invalidate_page``  :meth:`NandFlash.takes_runs`; then
                                         per page: in range and VALID
==================  ===================  ==================================

A ``program_run`` may interleave its pages over several blocks in any
order (a striped frontier puts each page on the least-busy unit); each
block's pages are stored by one slice per column.  A bulk path charges
the unit clocks in the scalar op order, in one loop
(:meth:`NandFlash._charge_run`): a channel wait reads the least-busy clock
at each op, so ``program_run`` is told the read before each program, and
the clocks a run leaves (:attr:`NandFlash.busy_until`) are those its
scalar ops leave - the clocks the frontier planned the run's placement
on.
:meth:`NandFlash.takes_runs` is the one place the device-wide conditions
are written: powered, no armed fault (the trip point is a page) and no
``serialize_timing`` (the property-test lever keeps the scalar ops).
Latencies need no condition: :class:`TimingModel` admits integer values
only, so a caller that moves by run may sum a run's latencies in any
association and get the scalar sum exactly.  The run ops here ask it and
take the scalar op order
whenever it says no; the sanitizer always says no, so every page of a
run gets its per-op audit.  A tracer is no device-wide condition:
``read_run`` and ``program_run`` serve a traced run with the scalar ops,
since the tracer must see each op's events in order.
:func:`repro.ftl.stripe.relocate` and
:meth:`repro.ftl.mapping.MappingStore.commit` ask it once per pass only
to size their runs - one page when it says no, the same code either way,
so a faulted or sanitized pass runs what the benchmark runs, and a
traced one plans the very same runs - and ``repro.perf.batch.engine_for``
asks it for replay epochs.
"""

from __future__ import annotations

import warnings
from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import (Any, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..obs.events import EventType
from .errors import (
    BadBlockError,
    DeviceOffError,
    EraseError,
    PowerLossError,
    ProgramError,
    ReadError,
    RedundantInvalidateWarning,
)
from .fault import PowerFault
from .geometry import FlashGeometry
from .oob import OOBData, PageKind, make_oob
from .page import FREE, INVALID, VALID, PageState
from .stats import FlashStats
from .timing import SLC_TIMING, TimingModel

#: The OOB kind byte a read or program tests per op (a plain int: no
#: enum lookup), and the :class:`PageKind` of each kind byte.
_MAPPING = int(PageKind.MAPPING)
_KINDS = (None, *PageKind)


class NandFlash:
    """A raw NAND device: geometry + timing + flat page/block state arrays.

    Args:
        geometry: Physical layout of the device.
        timing: Per-operation latency model (defaults to the paper-era SLC
            constants).
        enforce_sequential: Enforce in-block sequential programming.  All
            shipped FTLs program sequentially; tests may relax this.

    State arrays (read freely; only this package may store to them):

    ========================  =========  ================================
    ``page_states[ppn]``      bytearray  :class:`PageState` code
    ``page_data[ppn]``        list       payload object (None if erased)
    ``oob_lpn[ppn]``          array q    OOB lpn (0 if erased)
    ``oob_seq[ppn]``          array q    OOB sequence number (0 if erased)
    ``oob_kind[ppn]``         bytearray  :class:`PageKind` (0: no OOB)
    ``oob_cold[ppn]``         bytearray  OOB cold flag
    ``write_ptr[pbn]``        list       next programmable offset
    ``valid_count[pbn]``      list       VALID pages in the block
    ``erase_count[pbn]``      list       erases so far (wear)
    ``is_bad[pbn]``           bytearray  1 once the block is retired
    ``invalidated``           set        pbns that lost a VALID page since
                                         :meth:`take_invalidated`
    ========================  =========  ================================
    """

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: TimingModel = SLC_TIMING,
        enforce_sequential: bool = True,
        endurance: Optional[int] = None,
        initial_bad_blocks: Iterable[int] = (),
    ):
        self.geometry = geometry if geometry is not None else FlashGeometry()
        self.timing = timing
        self.enforce_sequential = enforce_sequential
        if endurance is not None and endurance < 1:
            raise ValueError("endurance must be >= 1 or None")
        self.endurance = endurance
        # Scalars of the (frozen) geometry, cached for the per-op address
        # math and range checks.
        num_blocks = self._num_blocks = self.geometry.num_blocks
        ppb = self._ppb = self.geometry.pages_per_block
        total = self._total_pages = num_blocks * ppb
        self.page_states = bytearray(total)
        self.page_data: List[Any] = [None] * total
        self.oob_lpn = array("q", bytes(8 * total))
        self.oob_seq = array("q", bytes(8 * total))
        self.oob_kind = bytearray(total)
        self.oob_cold = bytearray(total)
        self.write_ptr: List[int] = [0] * num_blocks
        self.valid_count: List[int] = [0] * num_blocks
        self.erase_count: List[int] = [0] * num_blocks
        self.is_bad = bytearray(num_blocks)
        #: Blocks whose valid count dropped since :meth:`take_invalidated`.
        self.invalidated: Set[int] = set()
        #: One erased block's worth of each page column (erase is a slice
        #: assignment from these).
        self._erased_states = bytes(ppb)
        self._erased_slots: List[None] = [None] * ppb
        self._erased_words = array("q", bytes(8 * ppb))
        for pbn in initial_bad_blocks:
            self.mark_bad(pbn)
        self.stats = FlashStats()
        self.fault = PowerFault()
        self._powered = True
        #: Optional :class:`repro.obs.tracer.Tracer` (None by default).
        self.tracer: Optional[Any] = None
        # Per-unit busy-until clocks (see "Timing model" above); busy time
        # and channel wait accrue only with more than one unit.
        units = self._units = self.geometry.channels
        self._unit_busy: List[float] = [0.0] * units
        self._idle = (0.0,) * units
        self._op_end = 0.0
        #: Force serial timing (placement unchanged); property-test lever.
        self.serialize_timing = False
        #: Cumulative raw device time per parallel unit (load balance).
        self.unit_busy_us: List[float] = [0.0] * units
        #: Cumulative stripe-imbalance wait (see "Timing model").
        self.channel_wait_us = 0.0
        #: Host-op boundaries marked (:meth:`begin_host_op` calls).
        self.host_ops = 0

    # ------------------------------------------------------------------
    # Power management (crash simulation)
    # ------------------------------------------------------------------
    @property
    def powered(self) -> bool:
        """False after a simulated power loss, until :meth:`power_on`."""
        return self._powered

    def power_off(self) -> None:
        """Cut power immediately (explicit alternative to armed faults)."""
        self._powered = False

    def power_on(self) -> None:
        """Restore power after a crash.

        Flash contents survive (that is the point of NAND); only the power
        state is reset.  RAM-resident FTL state does *not* survive - it is
        the recovery code's job to rebuild it.
        """
        self._powered = True
        self.fault.disarm()

    # ------------------------------------------------------------------
    # Host-op boundary and the busy-until clocks
    # ------------------------------------------------------------------
    def begin_host_op(self) -> None:
        """Reset the relative unit clocks at a host request boundary.

        Called by whoever drives the FTL - ``Simulator`` before every page
        op and ``background_work`` grant, ``FlashBlockDevice`` before every
        page op - so an op's flash commands overlap against a common origin
        and its deltas sum to its makespan.  A bare FTL driven without it
        on a multi-unit device (recovery scans, ad-hoc loops) keeps one
        continuous pipeline: deterministic, but consecutive host ops
        overlap and a latency can be 0.0.  At one unit nothing reads the
        clocks, so the simulator skips the call there.
        """
        self._unit_busy[:] = self._idle
        self._op_end = 0.0
        self.host_ops += 1

    @property
    def busy_until(self) -> List[float]:
        """Each unit's busy-until clock in the current host op: the
        device's own list, updated in place (read it, never store to it),
        which the write frontier reads to put a page on the least-busy
        unit."""
        return self._unit_busy

    def _charge(self, unit: int, raw_us: float) -> float:
        """Advance unit ``unit`` by ``raw_us``; return the op's delta
        (reporting its channel wait, if any, to an attached tracer)."""
        busy = self._unit_busy
        op_end = self._op_end
        start = busy[unit]
        wait = start - min(busy)
        end = busy[unit] = start + raw_us
        self.unit_busy_us[unit] += raw_us
        if self.serialize_timing:
            # Serial timing on the makespan alone: the unit clocks, which
            # placement reads, carry the same load as when overlapped.
            self._op_end = op_end + raw_us
            return raw_us
        self.channel_wait_us += wait
        if wait > 0.0 and self.tracer is not None:
            self.tracer.channel_wait(wait)
        if end <= op_end:
            return 0.0
        self._op_end = end
        return end - op_end

    def _charge_run(self, pages: Iterable[Optional[int]],
                    raws: Iterable[float]) -> float:
        """:meth:`_charge` an op on each page (None: no op) for its raw
        time, in order; returns the deltas summed (bulk run ops only)."""
        busy = self._unit_busy
        was = list(busy)
        wait = self.channel_wait_us
        ppb, units = self._ppb, self._units
        least = min(busy)  # clocks only rise: it moves when its unit does
        for page, raw_us in zip(pages, raws):
            if page is not None:
                unit = page // ppb % units
                start = busy[unit]
                wait += start - least
                busy[unit] = start + raw_us
                if start == least:
                    least = min(busy)
        self.channel_wait_us = wait
        # Integer-valued: each clock rose by its ops' sum, the makespan
        # is the latest clock.
        for unit in range(units):
            self.unit_busy_us[unit] += busy[unit] - was[unit]
        op_end = self._op_end
        self._op_end = max(op_end, *busy)
        return self._op_end - op_end

    # ------------------------------------------------------------------
    # Raw NAND operations
    # ------------------------------------------------------------------
    def read_page(self, ppn: int) -> Tuple[Any, float]:
        """Read a page; returns ``(data, latency_us)`` (its OOB is in the
        columns, or :meth:`oob`).

        Reading an unprogrammed page is a simulator usage bug, so it raises
        :class:`ReadError` rather than returning garbage silently.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        if self.page_states[ppn] == FREE:
            raise ReadError(
                f"read of never-programmed/erased page (block "
                f"{ppn // self._ppb}, offset {ppn % self._ppb})",
                rule="read-unwritten-page",
            )
        latency = self.timing.page_read_us
        stats = self.stats
        stats.page_reads += 1
        stats.read_us += latency
        if self._units > 1:
            latency = self._charge(ppn // self._ppb % self._units, latency)
        if self.tracer is not None:
            self.tracer.flash_op(EventType.PAGE_READ, ppn, latency)
            if self.oob_kind[ppn] == _MAPPING:
                self.tracer.emit(EventType.MAP_READ, lpn=self.oob_lpn[ppn],
                                 ppn=ppn)
        return self.page_data[ppn], latency

    def read_run(self, ppns: Sequence[int]) -> Tuple[Tuple[Any, ...], float]:
        """Read the pages ``ppns``: :meth:`read_page` once per page, in
        order; returns ``(datas, latency)``, the latencies summed.  A run
        of programmed pages, all in range, is read in one gather."""
        n = len(ppns)
        if n > 1 and self.tracer is None and self.takes_runs():
            gather = itemgetter(*ppns)  # n > 1: it returns a tuple
            try:
                legal = FREE not in gather(self.page_states) \
                    and min(ppns) >= 0
            except IndexError:
                legal = False
            if legal:
                latency = self.timing.page_read_us
                stats = self.stats
                stats.page_reads += n
                stats.read_us += latency * n
                if self._units > 1:
                    return gather(self.page_data), \
                        self._charge_run(ppns, [latency] * n)
                return gather(self.page_data), latency * n
        datas = []
        total = 0.0
        for ppn in ppns:
            data, latency = self.read_page(ppn)
            datas.append(data)
            total += latency
        return tuple(datas), total

    def probe_page(self, ppn: int) -> Tuple[Optional[OOBData], float]:
        """Read a page's OOB, tolerating erased pages.

        Returns ``(None, latency)`` for an unprogrammed page instead of
        raising; recovery scans use this to classify blocks (real
        controllers detect erased pages as all-0xFF).  Charged as a read.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        latency = self.timing.page_read_us
        stats = self.stats
        stats.page_reads += 1
        stats.read_us += latency
        if self._units > 1:
            latency = self._charge(ppn // self._ppb % self._units, latency)
        if self.tracer is not None:
            self.tracer.flash_op(EventType.PAGE_READ, ppn, latency)
        return self.oob(ppn), latency

    def program_page(
        self, ppn: int, data: Any, oob: Optional[OOBData] = None
    ) -> float:
        """Program a page; returns the latency in microseconds.

        Enforces erase-before-write (the page must be FREE) and, with
        ``enforce_sequential``, ascending in-block program order.  Raises
        :class:`PowerLossError` (leaving the page unprogrammed) if an
        armed fault trips on this operation.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        fault = self.fault
        # _remaining is None exactly when on_program() would return False
        # (disarmed, or already tripped), so the unarmed case skips the call.
        if fault._remaining is not None and fault.on_program(ppn):
            self._powered = False
            raise PowerLossError(f"power lost before programming ppn {ppn}")
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        ppb = self._ppb
        pbn = ppn // ppb
        offset = ppn - pbn * ppb
        if self.is_bad[pbn]:
            raise BadBlockError(pbn, self.erase_count[pbn], "program")
        states = self.page_states
        if states[ppn] != FREE:
            raise ProgramError(
                f"program of {PageState(states[ppn]).name.lower()} page "
                f"without erase (block {pbn}, offset {offset}, current "
                f"owner lpn={self._owner(ppn)})",
                rule="program-without-erase",
            )
        write_ptr = self.write_ptr[pbn]
        if offset != write_ptr and self.enforce_sequential:
            raise ProgramError(
                f"non-sequential program in block {pbn}: offset {offset}, "
                f"write pointer at {write_ptr}",
                rule="program-out-of-order",
            )
        states[ppn] = VALID
        self.page_data[ppn] = data
        if oob is not None:  # else the erased columns stay: no OOB
            (self.oob_lpn[ppn], self.oob_seq[ppn], self.oob_kind[ppn],
             self.oob_cold[ppn]) = oob
        if offset >= write_ptr:
            self.write_ptr[pbn] = offset + 1
        self.valid_count[pbn] += 1
        latency = self.timing.page_program_us
        stats = self.stats
        stats.page_programs += 1
        stats.program_us += latency
        if self._units > 1:
            latency = self._charge(pbn % self._units, latency)
        if self.tracer is not None:
            lpn = oob.lpn if oob is not None else None
            self.tracer.flash_op(EventType.PAGE_PROGRAM, ppn, latency, lpn=lpn)
            if oob is not None and oob.kind is PageKind.MAPPING:
                self.tracer.emit(EventType.MAP_WRITE, lpn=lpn, ppn=ppn)
        return latency

    def takes_runs(self) -> bool:
        """May a run op take its bulk path - and may a caller's runs be
        longer than one page?

        The one statement of the device-wide conditions (module docstring,
        "Run ops"); read-only.  Faults arm at any time, so the answer is
        asked when needed (by GC relocation and the GMT commit once per
        pass), never cached.
        """
        return (
            self._powered
            and self.fault._remaining is None
            and not self.serialize_timing
        )

    def program_run(
        self,
        ppn: Union[int, Sequence[int]],
        datas: Sequence[Any],
        lpns: Sequence[int],
        first_seq: int,
        kind: PageKind,
        cold: bool,
        reads: Optional[Sequence[Optional[int]]] = None,
    ) -> float:
        """Program ``len(datas)`` pages: from ``ppn`` on, or at the ppns
        ``ppn`` lists.

        Equivalent to, once per page in order, :meth:`read_page` of
        ``reads[i]`` (when given and not None: the read a copy or a
        read-modify-write does first; its data the caller took from the
        state arrays) and :meth:`program_page` with the OOB
        ``(lpns[i], first_seq + i, kind, cold)``, the latencies summed.  A
        plainly legal run is stored by slice assignment per block and
        column.
        """
        n = len(datas)
        if len(lpns) != n:
            raise ValueError("datas and lpns must have the same length")
        ppns = range(ppn, ppn + n) if isinstance(ppn, int) else ppn
        srcs = [src for src in reads if src is not None] if reads else ()
        blocks = self._run_blocks(ppns, srcs)
        if blocks is None:
            total = 0.0
            for i in range(n):
                if reads and reads[i] is not None:
                    total += self.read_page(reads[i])[1]
                total += self.program_page(ppns[i], datas[i], make_oob(
                    (lpns[i], first_seq + i, kind, cold)))
            return total
        ppb = self._ppb
        for start, picks in blocks:
            end = start + (size := len(picks))
            if size == n:  # the whole run in one block: plain slices
                page_datas, page_lpns = datas, lpns
                seqs = range(first_seq, first_seq + n)
            else:  # one gather each (a repeated index keeps it a tuple)
                gather = itemgetter(*picks, picks[0])
                page_datas = gather(datas)[:-1]
                page_lpns = gather(lpns)[:-1]
                seqs = map(first_seq.__add__, picks)
            self.page_states[start:end] = bytes((VALID,)) * size
            self.page_data[start:end] = page_datas
            self.oob_lpn[start:end] = array("q", page_lpns)
            # A list converts faster.
            self.oob_seq[start:end] = array("q", list(seqs))
            self.oob_kind[start:end] = bytes((kind,)) * size
            self.oob_cold[start:end] = bytes((cold,)) * size
            self.write_ptr[start // ppb] += size
            self.valid_count[start // ppb] += size
        read_lat = self.timing.page_read_us
        latency = self.timing.page_program_us
        stats = self.stats
        stats.page_reads += len(srcs)
        stats.page_programs += n
        # n adds of an integer latency: one exact multiply.
        stats.read_us += read_lat * len(srcs)
        stats.program_us += latency * n
        if self._units == 1:
            return read_lat * len(srcs) + latency * n
        # The scalar op order: page i's read (if any), then its program.
        steps: List[Optional[int]] = [None] * (2 * n)
        if reads:
            steps[0::2] = reads
        steps[1::2] = ppns
        return self._charge_run(steps, [read_lat, latency] * n)

    def _run_blocks(self, ppns: Sequence[int], srcs: Sequence[int]
                    ) -> Optional[List[Tuple[int, Sequence[int]]]]:
        """The blocks a plainly legal :meth:`program_run` fills, else None:
        per block, its first ppn and the run indices of its pages (in run
        order; a block's pages are contiguous from its write pointer)."""
        n = len(ppns)
        # A tracer must see per-op events in order: the scalar ops.
        if not (n and self.tracer is None and self.takes_runs()):
            return None
        states = self.page_states
        try:  # every read in range and programmed, in one gather (the
            # first index repeated keeps its result a tuple)
            if srcs and (min(srcs) < 0
                         or FREE in itemgetter(*srcs, srcs[0])(states)):
                return None
        except IndexError:
            return None
        ppb = self._ppb
        first = ppns[0]
        if ppns[-1] - first == n - 1 and first // ppb == ppns[-1] // ppb \
                and (isinstance(ppns, range) and ppns.step == 1
                     or list(ppns) == list(range(first, first + n))):
            blocks: List[Tuple[int, Sequence[int]]] = [(first, range(n))]
        else:  # a striped run: its pages by block, in ppn order
            order = sorted(range(n), key=ppns.__getitem__)
            ranked = sorted(ppns)
            blocks = []
            k = 0
            while k < n:
                start = ranked[k]
                j = bisect_left(ranked, (start // ppb + 1) * ppb, k)
                picks = order[k:j]
                # Contiguous (no repeat) and programmed in run order.
                if ranked[j - 1] - start != j - k - 1 \
                        or picks != sorted(picks):
                    return None
                blocks.append((start, picks))
                k = j
        for start, page in blocks:
            end = start + len(page)
            pbn = start // ppb
            if not (0 <= start and end <= (pbn + 1) * ppb <= self._total_pages
                    and not self.is_bad[pbn]
                    and start - pbn * ppb == self.write_ptr[pbn]
                    and states.count(FREE, start, end) == end - start):
                return None
        return blocks

    def erase_block(self, pbn: int) -> float:
        """Erase a block; returns the latency in microseconds.

        A block still holding VALID pages raises :class:`EraseError`
        (after charging the erase; nothing is lost).  Otherwise, with an
        ``endurance`` limit configured, the erase that would exceed it
        *fails*: the block is marked bad (its stale contents are
        discarded) and :class:`BadBlockError` is raised after charging the
        erase time - real controllers discover wear-out exactly this way.
        """
        if not self._powered:
            raise DeviceOffError("flash device is powered off")
        fault = self.fault
        if fault._remaining is not None and fault.on_erase(pbn):
            self._powered = False
            raise PowerLossError(f"power lost before erasing block {pbn}")
        if not 0 <= pbn < self._num_blocks:
            self.geometry.check_block(pbn)
        if self.is_bad[pbn]:
            raise BadBlockError(pbn, self.erase_count[pbn], "erase")
        latency = self.timing.block_erase_us
        stats = self.stats
        stats.block_erases += 1
        stats.erase_us += latency
        if self._units > 1:
            latency = self._charge(pbn % self._units, latency)
        if self.tracer is not None:
            self.tracer.flash_op(EventType.BLOCK_ERASE, pbn, latency)
        if self.valid_count[pbn] > 0:
            owners = sorted(oob.lpn for oob in map(
                self.oob, self.valid_ppns(pbn)) if oob is not None)[:8]
            raise EraseError(
                f"erase of block {pbn} holding {self.valid_count[pbn]} "
                f"valid page(s) (live lpns include {owners}) - data must "
                "be relocated before the erase",
                rule="erase-with-valid-pages",
            )
        endurance = self.endurance
        if endurance is not None and self.erase_count[pbn] >= endurance:
            self.force_erase(pbn)  # stale contents are gone either way
            self.mark_bad(pbn)
            raise BadBlockError(pbn, self.erase_count[pbn])
        self.force_erase(pbn)
        return latency

    # ------------------------------------------------------------------
    # Simulator-level bookkeeping (free: models FTL RAM metadata updates)
    # ------------------------------------------------------------------
    def invalidate_page(self, ppn: int) -> None:
        """Mark a physical page stale.  Costs no simulated time.

        Invalidating a never-programmed page raises
        :class:`~repro.flash.errors.ProgramError`; invalidating an
        already-stale page is counted (``stats.redundant_invalidates``)
        and reported via :class:`RedundantInvalidateWarning` - the FTL's
        bookkeeping retired the same copy twice.  The flashsan sanitizer
        turns both into structured violations.  Short of an erase nothing
        else lowers a block's valid count, so the block is noted in
        ``invalidated`` for whoever indexes blocks by it (GC's victim pool).
        """
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        states = self.page_states
        state = states[ppn]
        if state == VALID:
            states[ppn] = INVALID
            self.valid_count[ppn // self._ppb] -= 1
            self.invalidated.add(ppn // self._ppb)
            return
        pbn, offset = divmod(ppn, self._ppb)
        if state == FREE:
            raise ProgramError(
                f"invalidate of never-programmed/erased page (block {pbn}, "
                f"offset {offset})",
                rule="invalidate-unwritten-page",
            )
        self.stats.redundant_invalidates += 1
        warnings.warn(
            RedundantInvalidateWarning(
                f"page (block {pbn}, offset {offset}) invalidated "
                "twice - double supersession in FTL bookkeeping"
            ),
            stacklevel=2,
        )

    def invalidate_run(self, ppns: Sequence[int]) -> None:
        """Mark the pages ``ppns`` stale: :meth:`invalidate_page` once per
        page, in order (a run op; a VALID page in range is stored here)."""
        invalidate_page = self.invalidate_page
        if not self.takes_runs():
            for ppn in ppns:
                invalidate_page(ppn)
            return
        states = self.page_states
        valid_count = self.valid_count
        invalidated = self.invalidated
        ppb = self._ppb
        total = self._total_pages
        noted = -1  # a run mostly stays in one block: note it once
        for ppn in ppns:
            if 0 <= ppn < total and states[ppn] == VALID:
                states[ppn] = INVALID
                pbn = ppn // ppb
                valid_count[pbn] -= 1
                if pbn != noted:
                    invalidated.add(pbn)
                    noted = pbn
            else:
                invalidate_page(ppn)  # raises or warns as it always does

    def take_invalidated(self) -> Set[int]:
        """Hand over the blocks noted in ``invalidated``; start afresh."""
        touched = self.invalidated
        self.invalidated = set()
        return touched

    def force_erase(self, pbn: int) -> None:
        """Reset a block to erased even if valid pages remain.

        The state half of :meth:`erase_block` (which calls it after its
        checks); called directly only by test/fault tooling.  Charges
        nothing and emits nothing.
        """
        self.geometry.check_block(pbn)
        ppb = self._ppb
        base = pbn * ppb
        self.page_states[base:base + ppb] = self._erased_states
        self.page_data[base:base + ppb] = self._erased_slots
        self.oob_lpn[base:base + ppb] = self._erased_words
        self.oob_seq[base:base + ppb] = self._erased_words
        self.oob_kind[base:base + ppb] = self._erased_states
        self.oob_cold[base:base + ppb] = self._erased_states
        self.write_ptr[pbn] = 0
        self.valid_count[pbn] = 0
        self.erase_count[pbn] += 1

    def mark_bad(self, pbn: int) -> None:
        """Permanently retire a block (wear-out or factory mark)."""
        self.geometry.check_block(pbn)
        self.is_bad[pbn] = 1

    # ------------------------------------------------------------------
    # Uncharged introspection
    # ------------------------------------------------------------------
    def page_state(self, ppn: int) -> PageState:
        """Return the :class:`~repro.flash.page.PageState` of a page."""
        self.geometry.check_ppn(ppn)
        return PageState(self.page_states[ppn])

    def valid_ppns(self, pbn: int) -> List[int]:
        """ppns of the block's VALID pages, ascending (GC's work list)."""
        base = pbn * self._ppb
        states = self.page_states
        return [
            ppn for ppn in range(base, base + self.write_ptr[pbn])
            if states[ppn] == VALID
        ]

    def oob(self, ppn: int) -> Optional[OOBData]:
        """The page's OOB as read from its columns; None if it has none
        (erased, or programmed without one)."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        kind = self.oob_kind[ppn]
        if not kind:
            return None
        return make_oob((self.oob_lpn[ppn], self.oob_seq[ppn], _KINDS[kind],
                         bool(self.oob_cold[ppn])))

    def _owner(self, ppn: int) -> Optional[int]:
        """lpn recorded in the page's OOB, if any (for refusal text)."""
        return self.oob_lpn[ppn] if self.oob_kind[ppn] else None

    def erase_counts(self) -> List[int]:
        """Per-block erase counts (wear profile)."""
        return list(self.erase_count)

    def parallel_summary(self) -> dict:
        """Per-unit load and imbalance counters (all simulated us)."""
        total = sum(self.unit_busy_us)
        return {
            "units": self._units,
            "unit_busy_us": list(self.unit_busy_us),
            "busy_imbalance": (
                max(self.unit_busy_us) / (total / self._units)
                if total > 0 else 0.0
            ),
            "channel_wait_us": self.channel_wait_us,
            "host_ops": self.host_ops,
        }

    def bad_blocks(self) -> List[int]:
        """Indices of all retired (bad) blocks."""
        return [pbn for pbn, bad in enumerate(self.is_bad) if bad]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.geometry
        return (
            f"NandFlash({g.num_blocks} blocks x {g.pages_per_block} pages "
            f"x {g.page_size}B, ops={self.stats.total_ops})"
        )
