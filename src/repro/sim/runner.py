"""Cross-scheme experiment runner: the engine behind every benchmark.

Runs the same trace (with identical device geometry, timing and
overprovisioning) through each FTL scheme and collects
:class:`~repro.sim.simulator.SimulationResult` objects, plus sweep helpers
for parameter-sensitivity figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..flash import SLC_TIMING, TimingModel
from ..obs.tracer import Tracer
from ..traces.model import Trace, merge_traces
from ..traces.synthetic import uniform_random, warmup_fill
from .factory import SCHEMES, standard_setup
from .simulator import SimulationResult, Simulator


@dataclass
class DeviceSpec:
    """Device + overprovisioning shared by all schemes in a comparison."""

    num_blocks: int = 256
    pages_per_block: int = 64
    page_size: int = 2048
    logical_fraction: float = 0.85
    timing: TimingModel = SLC_TIMING
    channels: int = 1

    @property
    def logical_pages(self) -> int:
        return int(
            self.num_blocks * self.pages_per_block * self.logical_fraction
        )


#: The device every headline benchmark runs on.  It is the paper's 32 GB
#: SLC device scaled down ~1000x so a full steady-state simulation takes
#: seconds in pure Python: 1024 blocks x 64 pages x 512 B = 32 MiB raw.
#: The 512 B pages keep the ratio of translation pages to the CMT/UMT
#: capacity realistic (128-entry mapping pages -> 410 translation pages),
#: which is what the relative scheme behaviour depends on; timing stays
#: the paper-era SLC model.
HEADLINE_DEVICE = DeviceSpec(
    num_blocks=1024,
    pages_per_block=64,
    page_size=512,
    logical_fraction=0.80,
)


#: Per-scheme constructor options used by the headline comparisons.
#: LazyFTL's areas and DFTL's CMT depend on the device, so
#: :func:`run_scheme` adds them (:func:`lazy_headline_options`,
#: :func:`dftl_parity_options`).  BAST/FAST get 16 log blocks, their
#: customary budget.
DEFAULT_OPTIONS: Dict[str, Dict[str, Any]] = {
    "BAST": {"num_log_blocks": 16},
    "FAST": {"num_rw_log_blocks": 16},
    "superblock": {"blocks_per_superblock": 8, "spare_per_superblock": 1},
    "DFTL": {},
    "LazyFTL": {},
    "ideal": {},
}


def lazy_headline_options(num_blocks: int = 1024) -> Dict[str, Any]:
    """LazyFTL options for the headline configuration.

    UBA 32 / CBA 4 on the headline device; scaled down proportionally for
    smaller test devices so the staging areas never swallow the spare
    capacity.
    """
    from .factory import default_lazy_config

    uba = max(2, min(32, num_blocks // 16))
    cba = max(2, min(4, num_blocks // 64))
    return {"config": default_lazy_config(uba_blocks=uba, cba_blocks=cba)}


def dftl_parity_options(num_blocks: int = 1024,
                        pages_per_block: int = 64) -> Dict[str, Any]:
    """DFTL options at **RAM parity** with LazyFTL, the paper's
    methodology: the CMT holds as many entries as LazyFTL's UMT can (one
    per UBA/CBA page of :func:`lazy_headline_options` on the same device)
    - 2304 on 512- to 2048-block devices of 64-page blocks."""
    config = lazy_headline_options(num_blocks)["config"]
    return {"cmt_entries":
            (config.uba_blocks + config.cba_blocks) * pages_per_block}


def run_scheme(
    scheme: str,
    trace: Trace,
    device: Optional[DeviceSpec] = None,
    warmup: Optional[Trace] = None,
    precondition: bool = True,
    tracer: Optional[Tracer] = None,
    sanitize: bool = False,
    replay_mode: Optional[str] = None,
    **options: Any,
) -> SimulationResult:
    """Run one scheme over one trace on a fresh device.

    Args:
        precondition: True fills the logical space once before measuring;
            the string ``"steady"`` additionally overwrites one footprint's
            worth of random pages so garbage collection is in steady state
            when measurement starts (the standard SSD methodology).
            Ignored when an explicit ``warmup`` trace is given.
        tracer: Optional event tracer (see :mod:`repro.obs`); attached to
            the scheme for the measured run (warm-up is not traced).
        sanitize: Run the whole replay under the flashsan sanitizer (see
            :mod:`repro.checks`): every raw op is validated as it happens
            and a full mapping audit runs after the measured trace; the
            first violation raises :class:`repro.checks.SanitizerViolation`.
        replay_mode: Passed to :class:`~repro.sim.simulator.Simulator`
            (``auto``/``scalar``); None means auto.
    """
    device = device if device is not None else DeviceSpec()
    opts = dict(DEFAULT_OPTIONS.get(scheme, {}))
    if scheme == "LazyFTL" and "config" not in options:
        opts.update(lazy_headline_options(device.num_blocks))
    if scheme == "DFTL":
        opts.update(dftl_parity_options(device.num_blocks,
                                        device.pages_per_block))
    opts.update(options)
    flash, ftl, logical_pages = standard_setup(
        scheme,
        num_blocks=device.num_blocks,
        pages_per_block=device.pages_per_block,
        page_size=device.page_size,
        logical_fraction=device.logical_fraction,
        timing=device.timing,
        sanitize=sanitize,
        channels=device.channels,
        **opts,
    )
    footprint = min(trace.max_lpn + 1, logical_pages)
    if trace.max_lpn >= logical_pages:
        raise ValueError(
            f"trace touches lpn {trace.max_lpn} but the device exports only "
            f"{logical_pages} pages - regenerate the trace with a smaller "
            "footprint or enlarge the device"
        )
    if warmup is None and precondition and footprint > 0:
        warmup = warmup_fill(footprint)
        if precondition == "steady":
            overwrites = uniform_random(
                int(footprint * 0.7), footprint, write_ratio=1.0, seed=987,
                name="steady-warmup",
            )
            warmup = merge_traces([warmup, overwrites], name="warmup")
    simulator = Simulator(ftl, tracer=tracer, replay_mode=replay_mode)
    result = simulator.run(trace, warmup=warmup)
    if sanitize:
        # Post-run full-state audit: mapping invariants must hold at rest.
        ftl.assert_clean()
    return result


def compare_schemes(
    trace: Trace,
    schemes: Sequence[str] = SCHEMES,
    device: Optional[DeviceSpec] = None,
    precondition: bool = True,
    options: Optional[Dict[str, Dict[str, Any]]] = None,
    tracer: Optional[Tracer] = None,
    sanitize: bool = False,
    jobs: int = 1,
) -> Dict[str, SimulationResult]:
    """Run several schemes over the same trace; returns scheme -> result.

    With a ``tracer``, all schemes share it (events carry the scheme
    name), so one JSONL file holds the whole comparison.  With
    ``sanitize``, every scheme runs under flashsan (see
    :func:`run_scheme`).

    With ``jobs > 1`` the schemes fan out over a process pool (see
    :mod:`repro.perf.sweep`); each worker rebuilds its device and FTL, so
    results are identical to a serial run.  A tracer requires ``jobs=1``:
    its event stream cannot cross process boundaries.
    """
    if jobs > 1:
        if tracer is not None:
            raise ValueError(
                "compare_schemes with a tracer requires jobs=1: the event "
                "stream cannot cross process boundaries"
            )
        from ..perf.sweep import SweepCell, run_sweep

        cells = [
            SweepCell(
                name=scheme,
                scheme=scheme,
                trace=trace,
                device=device,
                precondition=precondition,
                options={"sanitize": sanitize,
                         **(options or {}).get(scheme, {})},
            )
            for scheme in schemes
        ]
        return dict(zip(schemes, run_sweep(cells, jobs=jobs)))
    results: Dict[str, SimulationResult] = {}
    for scheme in schemes:
        extra = (options or {}).get(scheme, {})
        results[scheme] = run_scheme(
            scheme, trace, device=device, precondition=precondition,
            tracer=tracer, sanitize=sanitize, **extra
        )
    return results


def sweep(
    scheme: str,
    trace_of: Callable[[Any], Trace],
    parameter_values: Sequence[Any],
    options_of: Callable[[Any], Dict[str, Any]],
    device_of: Optional[Callable[[Any], DeviceSpec]] = None,
    precondition: bool = True,
) -> List[SimulationResult]:
    """Parameter sweep for sensitivity figures (E7/E8/E9/E10).

    For each value: build the trace, device and scheme options, run, and
    collect results in order.
    """
    results = []
    for value in parameter_values:
        device = device_of(value) if device_of is not None else None
        results.append(
            run_scheme(
                scheme,
                trace_of(value),
                device=device,
                precondition=precondition,
                **options_of(value),
            )
        )
    return results
