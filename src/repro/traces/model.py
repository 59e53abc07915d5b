"""I/O trace model: requests and traces.

A trace is an ordered sequence of host requests.  Requests address logical
*pages* (the FTL's unit); parsers for sector-granular formats (SPC) convert
on the way in.  Arrival timestamps are optional:

* ``arrival_us`` set -> *open-loop* replay: the simulator queues requests
  that arrive while the device is busy, so response time includes queueing
  delay (this is how trace timestamps are honoured);
* ``arrival_us is None`` -> *closed-loop* replay: each request is issued as
  soon as the previous one completes, so response time equals service time.
  Synthetic generators default to closed-loop, which isolates FTL overheads
  from arrival-process artefacts.

A :class:`Trace` *is* four parallel machine-typed columns (struct of
arrays), which the replay loop in :mod:`repro.sim.simulator` reads by
index:

* ``ops``      - ``array('b')``: 1 for a write, 0 for a read;
* ``lpns``     - ``array('q')``: first logical page of each request;
* ``npages``   - ``array('q')``: run length in pages (>= 1);
* ``arrivals`` - ``array('d')`` or None: arrival timestamps in
  microseconds.  ``None`` means the whole trace is closed-loop; inside an
  array, a :data:`NO_ARRIVAL` (NaN) entry marks one closed-loop request
  (mixed traces come from :func:`merge_traces`).  ``IORequest`` rejects
  a NaN timestamp, so the sentinel can mean nothing else.

:class:`IORequest` is the validated per-request view: ``Trace(requests)``
builds the columns from requests, and iterating or indexing a trace
builds request objects on the fly - a trace never stores one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

#: Sentinel stored in the ``arrivals`` column for a closed-loop request.
NO_ARRIVAL = float("nan")


class OpType(Enum):
    """Host operation type."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class IORequest:
    """One host request against the logical address space.

    Attributes:
        op: Read or write.
        lpn: First logical page touched.
        npages: Number of consecutive logical pages touched (>= 1).
        arrival_us: Optional arrival timestamp for open-loop replay.
    """

    op: OpType
    lpn: int
    npages: int = 1
    arrival_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lpn < 0:
            raise ValueError("lpn must be non-negative")
        if self.npages < 1:
            raise ValueError("npages must be >= 1")
        # NaN is rejected too (it is the closed-loop sentinel of the
        # arrivals column and compares false against everything): use
        # arrival_us=None instead.
        if self.arrival_us is not None and not self.arrival_us >= 0:
            raise ValueError("arrival_us must be non-negative")

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def pages(self) -> range:
        """The logical pages this request touches."""
        return range(self.lpn, self.lpn + self.npages)


def _column(typecode: str, values) -> array:
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, values)


class Trace:
    """An ordered sequence of requests, held as four columns plus a name.

    A trace is immutable by convention once constructed: the summary
    accessors (:attr:`page_ops`, :attr:`write_page_ops`, :attr:`max_lpn`,
    :meth:`footprint`, ...) are memoized on first use and never
    invalidated.  Build a new trace (:meth:`slice`, :func:`merge_traces`)
    instead of editing the columns in place.

    Pickling ships the four columns, which is what lets parallel sweeps
    (:mod:`repro.perf.sweep`) send workloads to worker processes cheaply.
    """

    __slots__ = ("name", "ops", "lpns", "npages", "arrivals",
                 "_page_ops", "_write_page_ops", "_max_lpn", "_footprint")

    def __init__(self, requests: Iterable[IORequest], name: str = "trace"):
        write = OpType.WRITE
        ops = array("b")
        lpns = array("q")
        npages = array("q")
        arrivals = array("d")
        for r in requests:
            ops.append(1 if r.op is write else 0)
            lpns.append(r.lpn)
            npages.append(r.npages)
            arrivals.append(NO_ARRIVAL if r.arrival_us is None
                            else r.arrival_us)
        closed_loop = all(arrival != arrival for arrival in arrivals)
        self._set_columns(ops, lpns, npages,
                          None if closed_loop else arrivals, name)

    @classmethod
    def from_columns(cls, ops, lpns, npages, arrivals=None,
                     name: str = "trace") -> "Trace":
        """A trace over existing columns (no copy when they are already
        arrays of the right type).  Generators, parsers and joins build
        their columns themselves, so only the shape is checked here; the
        values are checked when a request is viewed."""
        trace = cls.__new__(cls)
        trace._set_columns(
            _column("b", ops), _column("q", lpns), _column("q", npages),
            None if arrivals is None else _column("d", arrivals), name)
        return trace

    def _set_columns(self, ops: array, lpns: array, npages: array,
                     arrivals: Optional[array], name: str) -> None:
        n = len(ops)
        if len(lpns) != n or len(npages) != n or (
                arrivals is not None and len(arrivals) != n):
            raise ValueError("trace columns must have equal lengths")
        self.ops = ops
        self.lpns = lpns
        self.npages = npages
        self.arrivals = arrivals
        self.name = name
        self._page_ops: Optional[int] = None
        self._write_page_ops: Optional[int] = None
        self._max_lpn: Optional[int] = None
        self._footprint: Optional[int] = None

    def to_columnar(self) -> "Trace":
        """The trace itself: its columns are the struct-of-arrays form
        (kept because ``benchmarks/ftlbench`` still calls it)."""
        return self

    def __reduce__(self):
        return (Trace.from_columns,
                (self.ops, self.lpns, self.npages, self.arrivals, self.name))

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, i: int) -> IORequest:
        arrival = NO_ARRIVAL if self.arrivals is None else self.arrivals[i]
        return IORequest(
            OpType.WRITE if self.ops[i] else OpType.READ,
            self.lpns[i], self.npages[i],
            None if arrival != arrival else arrival,
        )

    def __iter__(self) -> Iterator[IORequest]:
        return map(self.__getitem__, range(len(self)))

    # ------------------------------------------------------------------
    # Memoized summaries used by reports and by E2 (trace characteristics)
    # ------------------------------------------------------------------
    @property
    def page_ops(self) -> int:
        """Total page-granular operations once requests are expanded."""
        if self._page_ops is None:
            self._page_ops = sum(self.npages)
        return self._page_ops

    @property
    def write_page_ops(self) -> int:
        if self._write_page_ops is None:
            self._write_page_ops = sum(
                npages for op, npages in zip(self.ops, self.npages) if op
            )
        return self._write_page_ops

    @property
    def read_page_ops(self) -> int:
        return self.page_ops - self.write_page_ops

    @property
    def write_ratio(self) -> float:
        """Fraction of page operations that are writes."""
        total = self.page_ops
        return self.write_page_ops / total if total else 0.0

    @property
    def max_lpn(self) -> int:
        """Highest logical page touched (-1 for an empty trace)."""
        if self._max_lpn is None:
            self._max_lpn = max(
                (lpn + npages - 1
                 for lpn, npages in zip(self.lpns, self.npages)),
                default=-1,
            )
        return self._max_lpn

    def footprint(self) -> int:
        """Number of distinct logical pages touched."""
        if self._footprint is None:
            seen: set = set()
            update = seen.update
            for lpn, npages in zip(self.lpns, self.npages):
                update(range(lpn, lpn + npages))
            self._footprint = len(seen)
        return self._footprint

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace of requests [start, stop) (columns are copied)."""
        arrivals = self.arrivals
        return Trace.from_columns(
            self.ops[start:stop], self.lpns[start:stop],
            self.npages[start:stop],
            None if arrivals is None else arrivals[start:stop],
            name=f"{self.name}[{start}:{stop}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, {len(self)} reqs, "
            f"{self.page_ops} page ops, w={self.write_ratio:.2f})"
        )


def merge_traces(traces: Sequence[Trace], name: str = "merged") -> Trace:
    """Join traces: interleave by arrival time, or concatenate.

    When every request of every trace carries an arrival timestamp, the
    requests are ordered by ``(arrival_us, source index, position)`` - a
    deterministic tie-break equal to a stable sort of the concatenation,
    so two requests arriving at the same instant keep their source order.
    If any request is closed-loop (no timestamp), interleaving by time is
    meaningless and the traces are concatenated in the order given.
    """
    ops = array("b")
    lpns = array("q")
    npages = array("q")
    arrivals = array("d")
    for trace in traces:
        ops.extend(trace.ops)
        lpns.extend(trace.lpns)
        npages.extend(trace.npages)
        arrivals.extend(array("d", [NO_ARRIVAL]) * len(trace)
                        if trace.arrivals is None else trace.arrivals)
    if all(arrival == arrival for arrival in arrivals):
        # Fully open-loop: Python's sort is stable, so sorting positions
        # of the concatenation by arrival is the (arrival, source,
        # position) order.
        order = sorted(range(len(ops)), key=arrivals.__getitem__)
        return Trace.from_columns(
            array("b", [ops[i] for i in order]),
            array("q", [lpns[i] for i in order]),
            array("q", [npages[i] for i in order]),
            array("d", [arrivals[i] for i in order]), name=name)
    closed_loop = all(trace.arrivals is None for trace in traces)
    return Trace.from_columns(ops, lpns, npages,
                              None if closed_loop else arrivals, name=name)
