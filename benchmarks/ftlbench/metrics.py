"""Metric declarations: every name ftlbench emits, with unit and direction.

``BENCHMARK.json`` at the repo root repeats these lists (the test suite
checks they agree); later issues cite the names verbatim.

Host vs simulated: ``replay_kops_per_s``, ``setup_s``, ``peak_rss_mb``
and every ``*_s`` / ``*_x`` / ``self_share`` layer metric are *host*
measurements (what the simulator costs to run); the first two are taken at
reference host speed (``steady.py``), the layer metrics on the wall clock.  ``sim_*`` and
``*.sim_share.*`` are *simulated* (what the modelled device would do) and
repeat exactly for a given seed; their unit says ``us_sim``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median by which the metric
    #: may worsen, over runs at *different* seeds, before a change counts
    #: as a regression (what BENCHMARK.json declares).
    bound: float = 0.0
    #: Simulated end-to-end metrics only: the same, when both sides
    #: replay the *same* seed and the metric therefore repeats exactly.
    same_seed_bound: float = 0.0


#: End-to-end metrics; every workload reports all of them.  ``bound`` is
#: at least twice the widest spread (IQR / median) measured over ten
#: seeds at the seed commit: host times are taken at reference speed
#: (see ``steady.py``), which leaves 2-12% of the box's 10-30% drift, and
#: simulated figures differ from seed to seed (GC stalls come in quanta).
#: For one fixed seed the simulated metrics repeat exactly and
#: ``--compare`` holds them to the tight ``same_seed_bound`` instead.
END_TO_END: Tuple[Metric, ...] = (
    Metric("replay_kops_per_s", "kops/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("sim_mean_us", "us_sim", "lower", 0.15, 0.02),
    Metric("sim_tail99_mean_us", "us_sim", "lower", 0.25, 0.02),
    Metric("sim_waf", "ratio", "lower", 0.15, 0.02),
    Metric("sim_erases_per_kwrite", "1/kwrite", "lower", 0.15, 0.02),
    Metric("sim_ram_kb", "KiB", "lower", 0.01, 0.0),
)

#: Host-measured end-to-end metrics (noisy); the rest repeat exactly.
HOST_METRICS = frozenset({"replay_kops_per_s", "setup_s", "peak_rss_mb"})

#: repro packages whose host self-time the profile pass splits out;
#: everything else (traces, obs, numpy, the harness) lands in ``other``.
PROFILED_PACKAGES = ("sim", "perf", "core", "ftl", "flash")

PER_LAYER: Tuple[Metric, ...] = (
    # traces/ -> setup_s
    Metric("traces.generate_s", "s", "lower"),
    Metric("traces.parse_cold_s", "s", "lower"),
    Metric("traces.parse_cached_s", "s", "lower"),
    # sim/ -> setup_s; dispatch share -> replay_kops_per_s on reads
    Metric("sim.build_s", "s", "lower"),
    Metric("sim.warm_up_s", "s", "lower"),
    Metric("sim.self_share", "share", "lower"),
    Metric("sim.host_us_per_flash_op", "us/op", "lower"),
    # perf/ -> replay_kops_per_s on point_read_hot
    Metric("perf.engine_engaged", "bool", "higher"),
    Metric("perf.batch_speedup_x", "x", "higher"),
    Metric("perf.self_share", "share", "lower"),
    Metric("perf.backend", "numpy01", "higher"),
    # core/ (LazyFTL) -> replay_kops_per_s + sim_* on oltp_*
    Metric("core.self_share", "share", "lower"),
    Metric("core.calls_per_kop", "1/kop", "lower"),
    Metric("core.gc_copies_per_host_write", "ratio", "lower"),
    Metric("core.converts", "count", "lower"),
    Metric("core.entries_per_map_write", "ratio", "higher"),
    Metric("core.map_reads_per_host_read", "ratio", "lower"),
    Metric("core.sim_share.gc", "share", "lower"),
    Metric("core.sim_share.mapping_commit", "share", "lower"),
    Metric("core.sim_share.translation_read", "share", "lower"),
    Metric("core.recovery.host_s", "s", "lower"),
    Metric("core.recovery.sim_ms", "ms_sim", "lower"),
    Metric("core.recovery.pages_read", "count", "lower"),
    # ftl/ (victim scan, pool, stripe; DFTL itself on oltp_dftl)
    Metric("ftl.self_share", "share", "lower"),
    Metric("ftl.calls_per_kop", "1/kop", "lower"),
    # flash/
    Metric("flash.self_share", "share", "lower"),
    Metric("flash.calls_per_kop", "1/kop", "lower"),
    Metric("flash.ops_per_kop.read", "1/kop", "lower"),
    Metric("flash.ops_per_kop.program", "1/kop", "lower"),
    Metric("flash.ops_per_kop.erase", "1/kop", "lower"),
    Metric("flash.sim_share.device_read", "share", "lower"),
    Metric("flash.sim_share.device_program", "share", "lower"),
    Metric("flash.sim_share.device_erase", "share", "lower"),
    Metric("flash.sim_share.channel_wait", "ratio", "lower"),
    Metric("flash.overlap_x", "x", "higher"),
    Metric("flash.wear_cv", "ratio", "lower"),
    Metric("flash.micro.program_kops_per_s", "kops/s", "higher"),
    Metric("flash.micro.read_kops_per_s", "kops/s", "higher"),
    Metric("flash.micro.erase_kops_per_s", "kops/s", "higher"),
    # obs/ and checks/: cost ratios of looking
    Metric("obs.traced_slowdown_x", "x", "lower"),
    Metric("obs.events_per_op", "1/op", "lower"),
    Metric("obs.attributed_fraction", "share", "higher"),
    Metric("checks.flashsan_slowdown_x", "x", "lower"),
    Metric("checks.flashsan_violations", "count", "lower"),
    # whole-host figures
    Metric("other.self_share", "share", "lower"),
    Metric("host.pycalls_per_op", "1/op", "lower"),
    Metric("host.profile_slowdown_x", "x", "lower"),
    Metric("scale.kops_ratio_4096_vs_2048", "ratio", "higher"),
)

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
