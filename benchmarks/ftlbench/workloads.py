"""Fixed configuration of ftlbench: devices, scheme options, workloads.

Everything a later PR must leave alone to stay comparable lives here:
the device geometry, the LazyFTL/DFTL options (RAM parity), the five
workloads with the reason each exists, and the two size profiles
(``FULL`` for recorded numbers, ``SMOKE`` for the sub-20-second check).
All traces derive from one ``--seed``; the simulator only ever sees the
generated columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Tuple

from repro.flash import SLC_TIMING
from repro.sim.factory import standard_setup
from repro.sim.runner import DeviceSpec, lazy_headline_options
from repro.traces.financial import financial1
from repro.traces.model import Trace
from repro.traces.synthetic import hot_cold, uniform_random, warmup_fill
from repro.traces.websearch import websearch

#: Seed offset of the steady-state overwrite pass (kept apart from the
#: measured-trace seeds so no workload replays its own warm-up).
WARMUP_SEED_OFFSET = 900
#: Seed offset of the untimed read-your-writes verification trace.
VERIFY_SEED_OFFSET = 7000


@dataclass(frozen=True)
class Profile:
    """One size of the whole benchmark (device + request counts)."""

    name: str
    #: Geometry, timing and exported fraction; ``channels`` is overridden
    #: per workload.
    device: DeviceSpec
    #: Measured requests per workload name.
    requests: Dict[str, int]
    #: Requests of the untimed verification pass.
    verify_requests: int
    #: Fewest timed repeats per run (more are added to fill --seconds).
    min_repeats: int
    #: Most timed repeats per run, however short each one is.
    max_repeats: int

    @property
    def footprint(self) -> int:
        """Exported logical pages (what every trace is generated over)."""
        return self.device.logical_pages

    def doubled(self) -> "Profile":
        """The same profile on twice the blocks (the scaling probe)."""
        device = replace(self.device, num_blocks=self.device.num_blocks * 2)
        return replace(self, name=f"{self.name}-x2", device=device)


#: BENCH_DEVICE: 2048 blocks x 64 pages x 512 B = 131 072 pages, 32x the
#: perfbench device - large enough that the O(blocks) victim scan and the
#: GMT working set (820 translation pages vs a 2304-entry UMT) show.
FULL = Profile(
    name="full",
    device=DeviceSpec(num_blocks=2048, pages_per_block=64, page_size=512,
                      logical_fraction=0.80, timing=SLC_TIMING),
    requests={
        "oltp_steady": 100_000,
        "websearch_read": 150_000,
        "point_read_hot": 1_800_000,
        "oltp_4ch": 60_000,
        "oltp_dftl": 50_000,
    },
    verify_requests=20_000,
    min_repeats=2,
    max_repeats=5,
)

SMOKE = Profile(
    name="smoke",
    device=DeviceSpec(num_blocks=128, pages_per_block=32, page_size=512,
                      logical_fraction=0.80, timing=SLC_TIMING),
    requests={
        "oltp_steady": 5_000,
        "websearch_read": 2_000,
        "point_read_hot": 5_000,
        "oltp_4ch": 2_500,
        "oltp_dftl": 2_500,
    },
    verify_requests=500,
    min_repeats=2,
    max_repeats=2,
)

PROFILES = {"full": FULL, "smoke": SMOKE}


def _oltp(profile: Profile, seed: int, n: int) -> Trace:
    # One generator call shared by the three oltp_* workloads: the 4ch
    # and DFTL runs replay a prefix of the *same* requests, so a number
    # that moves on one and not the others is the layer, not the trace.
    return financial1(n, profile.footprint, seed=seed)


def _websearch(profile: Profile, seed: int, n: int) -> Trace:
    return websearch(n, profile.footprint, seed=seed + 1)


def _point_reads(profile: Profile, seed: int, n: int) -> Trace:
    return hot_cold(
        n, profile.footprint, write_ratio=0.02, hot_fraction=0.2,
        hot_probability=0.9, seed=seed + 2, name="point-read-hot",
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: scheme, geometry, trace and the reason."""

    name: str
    scheme: str
    channels: int
    #: ``steady`` = fill + 0.7 footprints of random overwrites (GC in
    #: steady state when measurement starts); ``filled`` = fill only.
    warmup: str
    generate: Callable[[Profile, int, int], Trace]
    why: str

    def trace(self, profile: Profile, seed: int) -> Trace:
        """The measured trace for ``seed`` at this profile's size."""
        return self.generate(profile, seed, profile.requests[self.name])

    def verify_trace(self, profile: Profile, seed: int) -> Trace:
        """Fresh requests of the same shape for the untimed check."""
        return self.generate(
            profile, seed + VERIFY_SEED_OFFSET, profile.verify_requests
        )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "oltp_steady", "LazyFTL", 1, "steady", _oltp,
        "write-heavy skewed OLTP in GC steady state: victim scan, "
        "relocation, conversion and GMT commit do the work",
    ),
    Workload(
        "websearch_read", "LazyFTL", 1, "steady", _websearch,
        "99% multi-page reads: host read path and GMT double reads; "
        "bypasses GC changes and makes the batch engine decline",
    ),
    Workload(
        "point_read_hot", "LazyFTL", 1, "steady", _point_reads,
        "single-page hot reads: the only traffic the epoch batch engine "
        "carries, so both sides of that engine choice stay measured",
    ),
    Workload(
        "oltp_4ch", "LazyFTL", 4, "steady", _oltp,
        "the oltp_steady requests on a 4-channel striped device: "
        "per-unit clocks and stripe frontiers, batch engine declined",
    ),
    Workload(
        "oltp_dftl", "DFTL", 1, "steady", _oltp,
        "the oltp_steady requests through DFTL at RAM parity: shared "
        "flash/ftl layers under a different translation core",
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def scheme_options(workload: Workload, profile: Profile) -> Dict[str, Any]:
    """Constructor options: LazyFTL's areas, or DFTL's CMT at RAM parity.

    The areas follow the repo's headline rule (UBA 32 / CBA 4, scaled
    down on small devices).  ``gc_free_threshold=8`` rather than the
    headline default 4: at 4 the striped LazyFTL runs out of blocks on
    this device (see README, known seed defect); 8 is used for every
    LazyFTL workload so the serial and striped runs stay comparable.
    """
    lazy = replace(
        lazy_headline_options(profile.device.num_blocks)["config"],
        gc_free_threshold=8,
    )
    if workload.scheme == "LazyFTL":
        return {"config": lazy}
    # DFTL's CMT holds as many entries as LazyFTL's UMT can (one per
    # UBA/CBA page): 2304 on the full device, as DEFAULT_OPTIONS.
    return {"cmt_entries": (lazy.uba_blocks + lazy.cba_blocks)
            * profile.device.pages_per_block}


def build_device(workload: Workload, profile: Profile, **extra: Any):
    """``standard_setup`` for this workload; returns ``(flash, ftl)``.

    ``extra`` passes ``sanitize=True`` for the flashsan pass; the timed
    pass calls this with nothing.
    """
    device = profile.device
    flash, ftl, _ = standard_setup(
        workload.scheme,
        num_blocks=device.num_blocks,
        pages_per_block=device.pages_per_block,
        page_size=device.page_size,
        logical_fraction=device.logical_fraction,
        timing=device.timing,
        channels=workload.channels,
        **scheme_options(workload, profile),
        **extra,
    )
    return flash, ftl


def warmup_traces(workload: Workload, profile: Profile,
                  seed: int) -> List[Trace]:
    """The pre-conditioning traces, in replay order."""
    fp = profile.footprint
    traces = [warmup_fill(fp)]
    if workload.warmup == "steady":
        traces.append(uniform_random(
            int(0.7 * fp), fp, write_ratio=1.0,
            seed=seed + WARMUP_SEED_OFFSET, name="steady-overwrite",
        ))
    return traces
