"""End-to-end data-integrity verification of an FTL under a trace.

Replays a trace writing version tokens and shadow-checking every read (and
a final sweep) against a RAM model.  Integration tests and the examples use
this to demonstrate that a scheme is not merely fast but *correct* under
GC/merge/convert churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ftl.base import FlashTranslationLayer
from ..traces.model import Trace


class IntegrityError(AssertionError):
    """A read returned data that does not match the last write."""


@dataclass
class VerificationReport:
    """Outcome of a verified replay."""

    requests: int
    writes: int
    reads: int
    distinct_pages: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"verified {self.requests} requests "
            f"({self.writes} writes / {self.reads} reads) over "
            f"{self.distinct_pages} pages - all reads consistent"
        )


def verified_replay(
    ftl: FlashTranslationLayer,
    trace: Trace,
    final_sweep: bool = True,
) -> VerificationReport:
    """Replay ``trace`` with content checking; raises IntegrityError on
    any mismatch.

    Writes store ``(lpn, version)`` tokens; reads are compared against a
    shadow map.  Each request is one host run op, as in the simulator, so
    the payloads checked went through ``write_run`` / ``read_run``.
    ``final_sweep`` re-reads every written page at the end.
    """
    shadow: Dict[int, object] = {}
    version = 0
    writes = reads = 0
    for request in trace:
        pages = request.pages
        if request.is_write:
            tokens = list(zip(pages, range(version, version + len(pages))))
            version += len(pages)
            ftl.write_run(request.lpn, tokens)
            shadow.update(zip(pages, tokens))
            writes += len(pages)
        else:
            datas = ftl.read_run(request.lpn, len(pages)).data
            for lpn, got in zip(pages, datas):
                expect = shadow.get(lpn)
                if got != expect:
                    raise IntegrityError(
                        f"lpn {lpn}: read {got!r}, expected {expect!r}"
                    )
            reads += len(pages)
    if final_sweep:
        for lpn, expect in shadow.items():
            got = ftl.read(lpn).data
            if got != expect:
                raise IntegrityError(
                    f"final sweep lpn {lpn}: read {got!r}, expected {expect!r}"
                )
    return VerificationReport(
        requests=len(trace),
        writes=writes,
        reads=reads,
        distinct_pages=len(shadow),
    )
