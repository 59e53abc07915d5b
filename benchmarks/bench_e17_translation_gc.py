"""E17 - Table: translation-block-aware GC, the ablation of its constant.

``ftl/gc_policy.py::select_victim`` collects a full translation block only
when it is at most 1/``MAP_VICTIM_RATIO`` as valid as the best data block
(shipped: 1/4).  This sweeps that constant - k = 1 is the old mixed greedy
order, k = 0 "only when empty" - for LazyFTL and DFTL (the collector is
shared; ideal has no translation blocks and is the yardstick) on

* the ftlbench device (2048 x 64 x 512 B, its LazyFTL / DFTL options, its
  steady warm-up) replaying ftlbench's ``oltp_steady`` requests, seed 11;
* the headline device (1024 blocks) on financial1 / financial2 / tpcc /
  hot-cold, as E3 runs them.

Simulated numbers only, so every cell repeats exactly.  The liveness arm
(plain greedy order on the pool's last block) is on in every row.
"""

import dataclasses

from repro.ftl import gc_policy
from repro.sim import HEADLINE_DEVICE
from repro.sim.report import format_table
from repro.sim.runner import (
    DEFAULT_OPTIONS,
    dftl_parity_options,
    lazy_headline_options,
)
from repro.traces import financial1, financial2, hot_cold, tpcc
from repro.traces.model import merge_traces
from repro.traces.synthetic import uniform_random, warmup_fill

from conftest import N_REQUESTS, emit, measure
from ftlbench.workloads import (
    FULL,
    WORKLOAD_BY_NAME,
    scheme_options,
    warmup_traces,
)

FTLBENCH_SEED = 11
SHIPPED = gc_policy.MAP_VICTIM_RATIO
#: label -> MAP_VICTIM_RATIO; None is the old order (greedy over both
#: pools, ties to the lower pbn), which no ratio reproduces exactly.
SWEEP = (
    ("1 (old)", None),
    ("1/2", 2),
    ("1/4", 4),
    ("1/8", 8),
    ("0", 10 ** 9),
)


def with_ratio(ratio, run):
    """``run()`` under one value of the constant (restored after)."""
    select_victim = gc_policy.select_victim
    try:
        if ratio is None:
            gc_policy.select_victim = \
                lambda data, maps, last_block: select_victim(data, maps, True)
        else:
            gc_policy.MAP_VICTIM_RATIO = ratio
        return run()
    finally:
        gc_policy.select_victim = select_victim
        gc_policy.MAP_VICTIM_RATIO = SHIPPED


def row(label, scheme, k, result, ftl, ideal_us):
    stats = result.ftl_stats
    writes = stats.host_writes
    maps = getattr(ftl, "_maps", None)
    return [
        label, scheme, k, result.mean_response_us,
        f"{result.mean_response_us / ideal_us:.2f}",
        f"{result.flash.page_programs / writes:.2f}",
        1000.0 * result.flash.block_erases / writes,
        stats.gc_page_copies, stats.map_writes, stats.map_gc_copies,
        len(maps.full_blocks) if maps is not None else 0,
    ]


def sweep_cell(label, device, options_of, warm, trace):
    """ideal once, then LazyFTL and DFTL at every k, on one workload."""
    result, ftl = measure("ideal", device, {}, warm, trace)
    ideal_us = result.mean_response_us
    rows = [row(label, "ideal", "-", result, ftl, ideal_us)]
    for scheme in ("LazyFTL", "DFTL"):
        for k, ratio in SWEEP:
            result, ftl = with_ratio(ratio, lambda: measure(
                scheme, device, options_of(scheme), warm, trace))
            rows.append(row(label, scheme, k, result, ftl, ideal_us))
    return rows


def run_sweep():
    rows = []
    # The ftlbench device, its options and its warm-up.
    oltp = WORKLOAD_BY_NAME["oltp_steady"]
    rows += sweep_cell(
        "ftlbench oltp", FULL.device,
        lambda scheme: scheme_options(
            dataclasses.replace(oltp, scheme=scheme), FULL),
        merge_traces(warmup_traces(oltp, FULL, FTLBENCH_SEED), name="warmup"),
        oltp.trace(FULL, FTLBENCH_SEED))
    # The headline device, traces and preconditioning of E3: what
    # run_scheme(..., precondition="steady") replays, FTL kept in hand,
    # DFTL at RAM parity as there.
    footprint = int(HEADLINE_DEVICE.logical_pages * 0.8)
    options = {**DEFAULT_OPTIONS, "LazyFTL": lazy_headline_options(),
               "DFTL": dftl_parity_options(HEADLINE_DEVICE.num_blocks,
                                           HEADLINE_DEVICE.pages_per_block)}
    for trace in (
        financial1(N_REQUESTS, footprint, seed=0),
        financial2(N_REQUESTS, footprint, seed=0),
        tpcc(N_REQUESTS, footprint, seed=0),
        hot_cold(N_REQUESTS, footprint, hot_fraction=0.2,
                 hot_probability=0.8, seed=0, name="hot-cold"),
    ):
        touched = trace.max_lpn + 1
        warm = merge_traces([
            warmup_fill(touched),
            uniform_random(int(touched * 0.7), touched, write_ratio=1.0,
                           seed=987, name="steady-warmup"),
        ], name="warmup")
        rows += sweep_cell(
            trace.name, HEADLINE_DEVICE, options.__getitem__, warm, trace)
    return rows


def test_e17_translation_gc(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("e17_translation_gc", format_table(
        ["workload", "scheme", "k", "mean_us", "x ideal", "WAF",
         "erases/kwrite", "GC copies", "map writes", "map GC copies",
         "full map blocks"],
        rows,
        title="E17: translation-block-aware GC - a full translation block "
              "is the victim only at <= k x the best data block's valid "
              "count (shipped: 1/4)",
    ))
    cell = {(r[0], r[1], r[2]): r for r in rows}
    for workload in {r[0] for r in rows}:
        for scheme in ("LazyFTL", "DFTL"):
            old = cell[workload, scheme, "1 (old)"]
            new = cell[workload, scheme, "1/4"]
            # The shipped rule never costs response time or programs, and
            # it removes most of the collector's translation-page copies.
            assert new[3] <= old[3] and float(new[5]) <= float(old[5])
            assert new[9] < old[9]
        # The cross-scheme claim survives: LazyFTL beats DFTL, at every k.
        for k, _ in SWEEP:
            assert cell[workload, "LazyFTL", k][3] \
                < cell[workload, "DFTL", k][3]
    # The paper's headline on the benchmark device: 2.14x -> <= 1.6x.
    assert float(cell["ftlbench oltp", "LazyFTL", "1/4"][4]) <= 1.6
