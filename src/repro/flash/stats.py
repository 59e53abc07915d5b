"""Operation counters and time accounting for the flash device."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, TypeVar


_C = TypeVar("_C", bound="Counters")


class Counters:
    """Named counters: the one implementation behind :class:`FlashStats`
    and :class:`~repro.ftl.stats.FtlStats`.

    A subclass names its counters once, in ``_FIELDS``, and declares
    ``__slots__ = _FIELDS``: a plain slotted class rather than a
    dataclass, because the device and every FTL bump these counters on
    every raw or host operation, and slotted attribute access keeps that
    per-op cost minimal.  Counters start at zero - ``0.0`` for the
    ``*_us`` time accumulators - unless given by keyword.
    """

    __slots__ = ()
    _FIELDS: Tuple[str, ...] = ()

    def __init__(self, **counts: float) -> None:
        unknown = counts.keys() - set(self._FIELDS)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no counter(s) "
                            f"{', '.join(sorted(unknown))}")
        for name in self._FIELDS:
            setattr(self, name, counts.get(
                name, 0.0 if name.endswith("_us") else 0))

    def snapshot(self: _C) -> _C:
        """Return an independent copy of the current counters."""
        return type(self)(**self.as_dict())

    def diff(self: _C, earlier: _C) -> _C:
        """Return counters accumulated since an ``earlier`` snapshot."""
        return type(self)(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in self._FIELDS
        })

    def as_dict(self) -> Dict[str, Any]:
        """Flat dictionary view for reports."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in self.as_dict().items())
        return f"{type(self).__name__}({inner})"


class FlashStats(Counters):
    """Raw-device operation counters.

    ``*_us`` fields accumulate the simulated time spent in each operation
    class so callers can break total device time into read/program/erase
    components without re-multiplying counts by latencies.
    ``redundant_invalidates`` counts invalidations of already-stale pages
    (double supersession in FTL bookkeeping; see
    ``NandFlash.invalidate_page``) and should stay 0.
    """

    _FIELDS = (
        "page_reads",
        "page_programs",
        "block_erases",
        "read_us",
        "program_us",
        "erase_us",
        "redundant_invalidates",
    )

    __slots__ = _FIELDS

    page_reads: int
    page_programs: int
    block_erases: int
    read_us: float
    program_us: float
    erase_us: float
    redundant_invalidates: int

    @property
    def total_ops(self) -> int:
        return self.page_reads + self.page_programs + self.block_erases

    @property
    def total_us(self) -> float:
        return self.read_us + self.program_us + self.erase_us


def wear_summary(erase_counts: List[int]) -> Dict[str, float]:
    """Summarise per-block erase counts for wear-leveling analysis.

    Returns min/max/mean and the coefficient of variation (stddev / mean),
    the figure wear-leveling studies report: lower is more even.
    """
    if not erase_counts:
        return {"min": 0, "max": 0, "mean": 0.0, "cv": 0.0, "total": 0}
    total = sum(erase_counts)
    n = len(erase_counts)
    mean = total / n
    if mean == 0:
        return {"min": 0, "max": 0, "mean": 0.0, "cv": 0.0, "total": 0}
    var = sum((c - mean) ** 2 for c in erase_counts) / n
    return {
        "min": min(erase_counts),
        "max": max(erase_counts),
        "mean": mean,
        "cv": (var ** 0.5) / mean,
        "total": total,
    }
