"""Abstract interface shared by every flash translation layer.

An FTL receives page-granular host reads and writes, issues raw flash
operations against its :class:`~repro.flash.chip.NandFlash`, and returns the
accumulated latency of each host operation the way the device returns its
own: a write (``write_run``, ``trim``) returns the latency as a float, and a
read (``read_run``) the pair ``(data, latency_us)`` - a :class:`ReadResult`,
in the order of ``NandFlash.read_page`` / ``read_run``.  A multi-page
request is a *run*: one :meth:`FlashTranslationLayer.read_run` /
:meth:`~FlashTranslationLayer.write_run` call over its consecutive logical
pages.  The simulator (:mod:`repro.sim.simulator`) issues those calls,
applies queueing, and aggregates response times.

Host run ops
------------

Like the device's run ops (:mod:`repro.flash.chip`, "Run ops"), a host run
op is by contract **the scalar op once per page, in order**: same data,
same ``FtlStats`` / ``FlashStats``, same state afterwards, same exception at
the same page with every earlier page done.  The default implementation
*is* that loop.  Every scheme inherits ``write_run``, and five of the
six ``read_run`` (DFTL on purpose: a CMT miss loads one entry, as
published).  The one override, and the one stated exception, is
:meth:`repro.core.lazyftl.LazyFTL.read_run`, which does not fetch a
translation page twice in a row for the same request.

Whoever drives the FTL has duties at every *page* of a run - the host-op
boundary of a multi-unit device before it, the tracer's host event after
it - so a run op takes them as two optional callables:
``begin_page()`` and ``end_page(is_write, lpn, latency_us)`` (the
signatures of ``flash.begin_host_op`` and ``tracer.host_op``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Callable, NamedTuple, Optional, Sequence

from ..flash.chip import NandFlash
from ..obs.tracer import Tracer
from .gc_policy import recycle_block
from .pool import BlockPool
from .stats import FtlStats


#: The driver's per-page duties inside a run op (module docstring).
BeginPage = Optional[Callable[[], None]]
EndPage = Optional[Callable[[bool, int, float], None]]


class ReadResult(NamedTuple):
    """A host read's outcome: ``(data, latency_us)``, the order of
    :meth:`~repro.flash.chip.NandFlash.read_page`.

    Attributes:
        data: The stored payload (None if the logical page was never
            written); for ``read_run``, the list of them, one per page.
        latency_us: Simulated time the FTL spent serving the read (raw
            flash ops it issued, including any translation-page fetch).
            For a run op, the page latencies summed in order from 0.0.
    """

    data: Any
    latency_us: float


#: Build a :class:`ReadResult` from a ``(data, latency_us)`` pair - a
#: device read's return value as it is - with ``tuple.__new__``, skipping
#: the generated ``__new__``'s Python frame (one per host page read, as
#: :func:`~repro.flash.oob.make_oob` per program).
read_result = partial(tuple.__new__, ReadResult)


class FlashTranslationLayer(ABC):
    """Base class for all FTL schemes.

    Subclasses implement :meth:`read` and :meth:`write` (single logical
    page each) plus :meth:`ram_bytes`, and share the stats object, the
    default run ops and the unmapped-read convention defined here.

    Schemes contain no clock code: whoever drives the FTL marks the
    host-op boundary of a multi-unit device (``flash.begin_host_op``;
    the simulator and the block device do, before every page op - inside
    a run op through its ``begin_page``).  A
    bare ``ftl.write()`` without it is timed on one continuous pipeline:
    it may overlap the previous op's flash work, down to 0.0.

    Args:
        flash: The raw device this FTL manages (exclusively).
        logical_pages: Size of the logical address space exported to the
            host.  Must leave the scheme's required spare blocks free; each
            subclass validates its own requirement.
    """

    #: Human-readable scheme name used in reports.
    name: str = "abstract"

    #: True when the scheme programs pages at arbitrary in-block offsets
    #: (BAST/FAST-style in-place data blocks, legal on small-block NAND).
    #: The simulator disables the chip's sequential-programming check for
    #: such schemes.
    requires_random_program: bool = False

    #: Every scheme builds its free-block pool in ``__init__``.
    _pool: BlockPool

    def __init__(self, flash: NandFlash, logical_pages: int):
        if logical_pages <= 0:
            raise ValueError("logical_pages must be positive")
        if logical_pages > flash.geometry.total_pages:
            raise ValueError(
                "logical space cannot exceed physical capacity "
                f"({logical_pages} > {flash.geometry.total_pages})"
            )
        self.flash = flash
        self.logical_pages = logical_pages
        self.stats = FtlStats()
        #: Optional tracer; every emission site in subclasses is guarded
        #: by a single ``if self._tracer is not None`` branch so the
        #: disabled path costs nothing (see repro.obs).
        self._tracer: "Tracer | None" = None

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    @abstractmethod
    def read(self, lpn: int) -> ReadResult:
        """Serve a host read of one logical page: ``(data, latency_us)``."""

    @abstractmethod
    def write(self, lpn: int, data: Any = None) -> float:
        """Serve a host write of one logical page; returns its latency: the
        raw flash ops it issued, including any GC / merge work it had to do
        inline (the foreground-GC accounting the paper uses)."""

    def read_run(self, lpn: int, n: int, begin_page: BeginPage = None,
                 end_page: EndPage = None) -> ReadResult:
        """Serve a host read of the ``n`` logical pages from ``lpn``:
        :meth:`read` once per page, in order (module docstring, "Host run
        ops"); ``data`` is the list of payloads."""
        total = 0.0
        datas = []
        for lpn in range(lpn, lpn + n):
            if begin_page is not None:
                begin_page()
            data, latency = self.read(lpn)
            total += latency
            datas.append(data)
            if end_page is not None:
                end_page(False, lpn, latency)
        return read_result((datas, total))

    def write_run(self, lpn: int, datas: Sequence[Any],
                  begin_page: BeginPage = None,
                  end_page: EndPage = None) -> float:
        """Serve a host write of ``datas`` to the consecutive logical pages
        from ``lpn``: :meth:`write` once per page, in order; returns the
        latencies summed."""
        total = 0.0
        for lpn, data in enumerate(datas, lpn):
            if begin_page is not None:
                begin_page()
            latency = self.write(lpn, data)
            total += latency
            if end_page is not None:
                end_page(True, lpn, latency)
        return total

    def trim(self, lpn: int) -> float:
        """Discard a logical page (optional; default is a no-op).

        Subclasses that do real work on discard should call
        :meth:`_note_trim` with the accumulated latency instead of
        emitting events themselves, so host-level trim accounting stays
        uniform across schemes.
        """
        self._check_lpn(lpn)
        return self._note_trim(lpn, 0.0)

    def _note_trim(self, lpn: int, latency_us: float) -> float:
        """Emit the HostTrim event (when traced); returns ``latency_us``."""
        if self._tracer is not None:
            self._tracer.host_trim(lpn, latency_us)
        return latency_us

    def background_work(self, budget_us: float) -> float:
        """Use up to ``budget_us`` of device idle time for housekeeping.

        Returns the simulated time actually consumed (may slightly exceed
        the budget: a started operation completes).  The default FTL does
        nothing; schemes with idle-time policies (LazyFTL's background GC)
        override this.  The simulator calls it whenever an open-loop
        arrival finds the device idle.
        """
        return 0.0

    def _erase(self, pbn: int) -> float:
        """Erase a dead block and release it (or retire it, worn out)."""
        return recycle_block(self.flash, self._pool, self.stats, pbn)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> "Tracer | None":
        return self._tracer

    def attach_tracer(self, tracer: Tracer) -> Tracer:
        """Attach an event tracer to this FTL and its flash device.

        Sub-components that emit events (the MappingStore) read the
        device's ``tracer`` attribute, so there is nothing further to
        thread.
        """
        self._tracer = tracer
        self.flash.tracer = tracer
        return tracer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abstractmethod
    def ram_bytes(self) -> int:
        """RAM footprint of the scheme's translation structures, in bytes.

        Used by the E9 RAM-budget experiment; follows the paper's
        convention of 4-byte physical addresses / 8-byte map entries.
        """

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(
                f"lpn {lpn} outside logical space [0, {self.logical_pages})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(logical_pages={self.logical_pages})"


#: Latency returned for reads of never-written logical pages: the FTL
#: answers from its mapping metadata without touching flash.
UNMAPPED_READ_US = 0.0
