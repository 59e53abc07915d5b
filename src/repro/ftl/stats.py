"""FTL-level operation accounting.

The flash chip counts raw operations; this layer attributes them to FTL
activities so the benchmarks can report the breakdowns the paper's
evaluation discusses: merge kinds, GC copies, and translation overhead.
"""

from __future__ import annotations

from ..flash.stats import Counters


class FtlStats(Counters):
    """Counters maintained by every FTL implementation.

    Attributes:
        host_reads / host_writes: page-granular host operations served.
        gc_runs: garbage-collection invocations (victim erased).
        gc_page_copies: valid data pages relocated by GC.
        gc_erases: blocks erased by GC (data + log + mapping).
        merges_full / merges_partial / merges_switch: log-block merge
            operations (BAST and FAST; LazyFTL keeps these at zero by
            construction - the paper's headline claim).
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

    host_reads: int
    host_writes: int
    gc_runs: int
    gc_page_copies: int
    gc_erases: int
    merges_full: int
    merges_partial: int
    merges_switch: int
    merge_page_copies: int
    map_reads: int
    map_writes: int
    map_gc_copies: int
    converts: int
    batched_commits: int
    checkpoint_writes: int
    recovery_reads: int
    bad_blocks_retired: int

    @property
    def merges_total(self) -> int:
        return self.merges_full + self.merges_partial + self.merges_switch
