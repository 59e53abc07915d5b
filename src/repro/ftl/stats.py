"""FTL-level operation accounting.

The flash chip counts raw operations; this layer attributes them to FTL
activities so the benchmarks can report the breakdowns the paper's
evaluation discusses: merge kinds, GC copies, and translation overhead.
"""

from __future__ import annotations

from typing import Dict


class FtlStats:
    """Counters maintained by every FTL implementation.

    A plain ``__slots__`` class (not a dataclass): every host operation
    touches at least one of these counters, so attribute access is on the
    per-op hot path.

    Attributes:
        host_reads / host_writes: page-granular host operations served.
        gc_runs: garbage-collection invocations (victim erased).
        gc_page_copies: valid data pages relocated by GC.
        gc_erases: blocks erased by GC (data + log + mapping).
        merges_full / merges_partial / merges_switch: log-block merge
            operations (BAST, FAST, LAST; NFTL counts its folds as full
            merges; LazyFTL keeps these at zero by construction - the
            paper's headline claim).
        merge_page_copies: pages copied during merges (counted in one
            place, ``LogBlockFTL._merge_copy``).
        map_reads / map_writes: translation (GMT/translation-page) flash
            operations.
        map_gc_copies: the ``map_writes`` that are GC re-copies of a live
            translation page; the rest are commits.
        converts: LazyFTL block conversions (UBA/CBA block -> DBA block).
        batched_commits: mapping entries committed to the GMT in batch.
        checkpoint_writes: checkpoint pages programmed.
        recovery_reads: pages read during crash recovery.
    """

    _FIELDS = (
        "host_reads",
        "host_writes",
        "gc_runs",
        "gc_page_copies",
        "gc_erases",
        "merges_full",
        "merges_partial",
        "merges_switch",
        "merge_page_copies",
        "map_reads",
        "map_writes",
        "map_gc_copies",
        "converts",
        "batched_commits",
        "checkpoint_writes",
        "recovery_reads",
        "bad_blocks_retired",
    )

    __slots__ = _FIELDS

    def __init__(
        self,
        host_reads: int = 0,
        host_writes: int = 0,
        gc_runs: int = 0,
        gc_page_copies: int = 0,
        gc_erases: int = 0,
        merges_full: int = 0,
        merges_partial: int = 0,
        merges_switch: int = 0,
        merge_page_copies: int = 0,
        map_reads: int = 0,
        map_writes: int = 0,
        map_gc_copies: int = 0,
        converts: int = 0,
        batched_commits: int = 0,
        checkpoint_writes: int = 0,
        recovery_reads: int = 0,
        bad_blocks_retired: int = 0,
    ):
        self.host_reads = host_reads
        self.host_writes = host_writes
        self.gc_runs = gc_runs
        self.gc_page_copies = gc_page_copies
        self.gc_erases = gc_erases
        self.merges_full = merges_full
        self.merges_partial = merges_partial
        self.merges_switch = merges_switch
        self.merge_page_copies = merge_page_copies
        self.map_reads = map_reads
        self.map_writes = map_writes
        self.map_gc_copies = map_gc_copies
        self.converts = converts
        self.batched_commits = batched_commits
        self.checkpoint_writes = checkpoint_writes
        self.recovery_reads = recovery_reads
        self.bad_blocks_retired = bad_blocks_retired

    @property
    def merges_total(self) -> int:
        return self.merges_full + self.merges_partial + self.merges_switch

    def snapshot(self) -> "FtlStats":
        """Independent copy of the current counters."""
        return FtlStats(**{
            name: getattr(self, name) for name in self._FIELDS
        })

    def diff(self, earlier: "FtlStats") -> "FtlStats":
        """Counters accumulated since an ``earlier`` snapshot."""
        return FtlStats(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in self._FIELDS
        })

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view for reports."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FtlStats):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._FIELDS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"FtlStats({inner})"
