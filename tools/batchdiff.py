#!/usr/bin/env python3
"""batchdiff - scalar vs batched replay, runs vs one-page runs equivalence smoke.

The batch-replay engine (``repro.perf.batch``) promises *bit-identical*
modeled statistics to the scalar replay loop: epoch kernels only
vectorise stretches the planner proved free of GC/boundary work, and
float accumulation order is preserved.  This tool audits that promise
end-to-end: every scheme replays the same deterministic workloads three
ways - scalar, batched with every epoch on the numpy timing kernel (when
numpy is installed; by default only epochs of ``NUMPY_MIN_EPOCH`` ops
take it), and batched with every epoch on the pure ``array`` kernel, as
on a machine without numpy - and the full
:func:`repro.sim.golden.engine_digest` (flash counters, FTL stats,
response-time summary, wear map, RAM model, busy time) must compare
equal with ``==``.

LazyFTL is the one scheme with an epoch planner; every other scheme
takes the scalar path under ``replay_mode="auto"`` too (the engine
declines), so running the whole zoo also guards the dispatch gating
itself.

A second axis, ``runs``, audits the same promise one layer down: GC
relocation and GMT commits move pages by *run*, through the same code
on every device; ``NandFlash.takes_runs`` only decides whether a run may
be longer than one page.  Every scheme with a ``GarbageCollector``
(LazyFTL, DFTL, ideal) replays the workloads once more on a device that
refuses runs for a reason that changes nothing else - a power fault
armed to trip after 10**12 programs - and that digest must equal the
reference too: runs allowed == one-page runs, through the same code.
The third workload is multi-page (websearch-shaped, 4-16 pages a
request), so the same axis covers the *host* run ops: GC and
conversions land inside multi-page requests in runs on one device and
in one-page runs on the other, and LazyFTL's reuse of a held GMT page
(``read_run``) is the same on both.
The ``runs`` pair is replayed on a striped device as well (per-unit
clocks, frontiers rotating over several blocks) - ``4x1x1`` under the
write-heavy mix, ``2x2x1`` under the multi-page one - where the per-unit
load and channel wait (``parallel_summary()``) must match too.  Each
pair is replayed traced as well (the ``traced`` columns): a tracer sizes
no run, so the two event streams (:class:`repro.sim.golden.EventStreamHash`
digest and count) must match along with the statistics.

Run:  PYTHONPATH=src python tools/batchdiff.py [--requests N]
Exit status 0 when every digest matches, 1 on the first divergence
(the differing digest keys are printed).

``tools/check_all.py`` runs this as the ``batchdiff`` stage with
``[tool.check_all] batchdiff_requests`` from pyproject.toml.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import Dict, List, Tuple
from unittest.mock import patch

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.ftl.gc_policy import GarbageCollector  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.perf import batch  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.factory import SCHEMES, standard_setup  # noqa: E402
from repro.sim.golden import EventStreamHash, engine_digest  # noqa: E402
from repro.sim.runner import DeviceSpec, run_scheme  # noqa: E402
from repro.traces.synthetic import hot_cold, uniform_random  # noqa: E402
from repro.traces.websearch import websearch  # noqa: E402

#: Same smoke geometry as the check_all trace stage: small enough that
#: the whole zoo replays in seconds, small enough that GC and (for
#: LazyFTL) conversions fire within a few hundred operations - so the
#: scalar boundary path interleaves with the vectorized epochs instead
#: of one mode trivially covering the run.
DEVICE = DeviceSpec(
    num_blocks=96, pages_per_block=16, page_size=512, logical_fraction=0.7
)
#: The striped device of the ``runs`` axis per workload: name, channels,
#: dies (the read-heavy mix barely collects garbage, so it has none).
STRIPES = {
    "batchdiff-writeheavy": ("4x1x1", 4, 1),
    "batchdiff-multipage": ("2x2x1", 2, 2),
}


def build_traces(requests: int) -> List:
    """Two deterministic workloads bracketing LazyFTL's epoch planner,
    and one it never plans.

    The read-heavy hot/cold mix produces long vectorizable epochs (the
    fast path the kernels exist for); the write-heavy uniform mix keeps
    GC churning so nearly every epoch ends at a boundary op; every
    request of the multi-page mix is a host run op (a third as many
    requests: each is ~8 pages).
    """
    pages = DEVICE.logical_pages
    return [
        hot_cold(
            requests, pages, write_ratio=0.15, hot_fraction=0.2,
            hot_probability=0.9, seed=23, name="batchdiff-readheavy",
        ),
        uniform_random(
            requests, pages, write_ratio=0.7, seed=13,
            name="batchdiff-writeheavy",
        ),
        websearch(
            max(1, requests // 3), pages, seed=29, write_ratio=0.3,
            name="batchdiff-multipage",
        ),
    ]


def digest_for(scheme: str, trace, replay_mode: str,
               refuse_runs: bool = False, device: DeviceSpec = DEVICE,
               traced: bool = False) -> Tuple[Dict[str, object], bool]:
    """``(digest, moves_by_run)``: the replay's digest (with the device's
    ``parallel_summary()`` on a striped ``device``, and the measured
    run's event stream when ``traced``), and whether the scheme
    relocates through the one collector (the ``runs`` axis applies).

    ``refuse_runs`` arms the device's power fault far beyond any replay
    before the FTL sees it: ``takes_runs()`` is then False for the whole
    run (every internal move is a run of one, and the batch engine
    declines) and nothing else changes.
    """
    built = []

    def setup(*args, **kwargs):
        flash, ftl, logical_pages = standard_setup(*args, **kwargs)
        if refuse_runs:
            flash.fault.arm_after_programs(10 ** 12)
        built.append(ftl)
        return flash, ftl, logical_pages

    stream = EventStreamHash()
    with patch.object(runner, "standard_setup", setup):
        result = run_scheme(
            scheme, trace, device=device, precondition="steady",
            replay_mode=replay_mode,
            tracer=Tracer([stream]) if traced else None,
        )
    digest = engine_digest(result)
    if device is not DEVICE:
        digest["parallel"] = built[0].flash.parallel_summary()
    if traced:
        digest["events"] = stream.events
        digest["events_sha256"] = stream.hexdigest()
    return digest, isinstance(
        getattr(built[0], "_gc", None), GarbageCollector)


def diff_keys(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    return [key for key in a if a[key] != b.get(key)]


def verdict(axis: str, reference: Dict[str, object],
            candidate: Dict[str, object]) -> str:
    mismatched = diff_keys(reference, candidate)
    if mismatched:
        return f"{axis}:DIVERGED({','.join(mismatched)})"
    return f"{axis}:ok"


def forced_kernel(name: str):
    """Every epoch on the numpy kernel, or on the ``array`` kernel as on a
    machine without numpy (``"fallback"``)."""
    if name == "numpy":
        return patch.object(batch, "NUMPY_MIN_EPOCH", batch.MIN_EPOCH)
    return patch.object(batch, "_np", None)


def run_diff(requests: int, schemes: Tuple[str, ...]) -> int:
    kernels = ["fallback"]
    if batch._np is not None:
        kernels.insert(0, "numpy")
    failures = 0
    for trace in build_traces(requests):
        for scheme in schemes:
            reference, moves_by_run = digest_for(scheme, trace, "scalar")
            verdicts = []
            for kernel in kernels:
                with forced_kernel(kernel):
                    candidate, _ = digest_for(scheme, trace, "auto")
                verdicts.append(verdict(kernel, reference, candidate))
            if moves_by_run:
                devices = [("", DEVICE)]
                if trace.name in STRIPES:
                    name, channels, dies = STRIPES[trace.name]
                    devices.append((name, dataclasses.replace(
                        DEVICE, channels=channels, dies=dies)))
                for name, device in devices:
                    for traced in (False, True):
                        if device is DEVICE and not traced:
                            by_run = reference
                        else:
                            by_run, _ = digest_for(
                                scheme, trace, "scalar", device=device,
                                traced=traced)
                        by_page, _ = digest_for(
                            scheme, trace, "scalar", refuse_runs=True,
                            device=device, traced=traced)
                        axis = "traced" if traced else "runs"
                        verdicts.append(
                            verdict(axis + name, by_run, by_page))
            failures += sum("DIVERGED" in v for v in verdicts)
            print(f"{trace.name:22s} {scheme:11s} {'  '.join(verdicts)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="batchdiff", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--requests", type=int, default=600,
        help="host requests per workload (default 600)",
    )
    parser.add_argument(
        "--schemes", default=",".join(SCHEMES),
        help="comma-separated scheme subset (default: the whole zoo)",
    )
    args = parser.parse_args(argv)
    schemes = tuple(name for name in args.schemes.split(",") if name)
    unknown = [name for name in schemes if name not in SCHEMES]
    if unknown:
        parser.error(f"unknown scheme(s): {', '.join(unknown)}")
    failures = run_diff(args.requests, schemes)
    if failures:
        print(f"batchdiff: FAILED ({failures} divergent digest(s))")
        return 1
    print(f"batchdiff: all digests bit-identical "
          f"({len(schemes)} scheme(s), scalar vs batched, "
          f"{'numpy+fallback' if batch._np is not None else 'fallback'} "
          "kernels; runs allowed vs one-page runs, untraced and traced, "
          "host run ops included)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
