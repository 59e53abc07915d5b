"""E18 - Table: a request is a run - one GMT page read per (request,
translation page).

Since PR 22 a multi-page host request is one ``read_run`` / ``write_run``
call, and ``LazyFTL.read_run`` holds the GMT page it fetched for as long as
the request's consecutive lpns stay inside it.  This measures what that
modelling decision is worth, against the page loop it replaced ("LazyFTL
by page": the same scheme driven through the base class's ``read_run``),
DFTL (which keeps its published CMT semantics: a miss loads one entry) and
the ideal page-mapping FTL, on

* the ftlbench device (2048 x 64 x 512 B, its options and steady warm-up)
  replaying ftlbench's ``websearch_read`` and ``oltp_steady`` (financial1)
  requests, seed 11;
* the headline device (1024 blocks) on websearch / financial1, as E3 runs
  them.

Simulated numbers only, so every cell repeats exactly.
"""

import dataclasses

from repro.sim import HEADLINE_DEVICE
from repro.sim.report import format_table
from repro.sim.runner import DEFAULT_OPTIONS, lazy_headline_options
from repro.traces import financial1, websearch
from repro.traces.model import merge_traces
from repro.traces.synthetic import uniform_random, warmup_fill

from conftest import N_REQUESTS, emit, lazy_by_page, measure
from ftlbench.workloads import (
    FULL,
    WORKLOAD_BY_NAME,
    scheme_options,
    warmup_traces,
)

FTLBENCH_SEED = 11
#: label -> (scheme, driven through the page loop?)
ARMS = (
    ("ideal", "ideal", False),
    ("LazyFTL by page", "LazyFTL", True),
    ("LazyFTL", "LazyFTL", False),
    ("DFTL", "DFTL", False),
)


def workload_rows(label, device, options_of, warm, trace):
    rows = []
    ideal_us = None
    for arm, scheme, page_loop in ARMS:
        def run():
            return measure(scheme, device, options_of(scheme), warm, trace)
        result, _ = lazy_by_page(run) if page_loop else run()
        if ideal_us is None:
            ideal_us = result.mean_response_us
        stats = result.ftl_stats
        rows.append([
            label, arm, result.mean_response_us,
            f"{result.mean_response_us / ideal_us:.2f}",
            result.responses.reads.mean,
            stats.map_reads,
            f"{stats.map_reads / max(1, stats.host_reads):.3f}",
            f"{result.flash.page_programs / max(1, stats.host_writes):.2f}",
            result.flash.block_erases,
        ])
    return rows


def run_table():
    rows = []
    for name in ("websearch_read", "oltp_steady"):
        workload = WORKLOAD_BY_NAME[name]
        rows += workload_rows(
            f"ftlbench {name}", FULL.device,
            lambda scheme: {} if scheme == "ideal" else scheme_options(
                dataclasses.replace(workload, scheme=scheme), FULL),
            merge_traces(warmup_traces(workload, FULL, FTLBENCH_SEED),
                         name="warmup"),
            workload.trace(FULL, FTLBENCH_SEED))
    footprint = int(HEADLINE_DEVICE.logical_pages * 0.8)
    options = {**DEFAULT_OPTIONS, "LazyFTL": lazy_headline_options()}
    for trace in (websearch(N_REQUESTS, footprint, seed=0),
                  financial1(N_REQUESTS, footprint, seed=0)):
        touched = trace.max_lpn + 1
        warm = merge_traces([
            warmup_fill(touched),
            uniform_random(int(touched * 0.7), touched, write_ratio=1.0,
                           seed=987, name="steady-warmup"),
        ], name="warmup")
        rows += workload_rows(
            f"headline {trace.name}", HEADLINE_DEVICE, options.__getitem__,
            warm, trace)
    return rows


def test_e18_request_runs(benchmark):
    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    emit("e18_request_runs", format_table(
        ["workload", "scheme", "mean_us", "x ideal", "read mean_us",
         "map reads", "map reads / host read", "WAF", "erases"],
        rows,
        title="E18: a request is a run - LazyFTL reads one GMT page per "
              "(request, translation page); 'by page' is the page loop "
              "it replaced",
    ))
    cell = {(r[0], r[1]): r for r in rows}
    for workload in {r[0] for r in rows}:
        old = cell[workload, "LazyFTL by page"]
        new = cell[workload, "LazyFTL"]
        # Reads got cheaper or stayed; writes, GC and wear did not move.
        assert new[2] <= old[2] and new[5] <= old[5]
        assert new[7:] == old[7:]
        assert new[2] < cell[workload, "DFTL"][2]
    # The claim, on the benchmark workload: 439.7 -> <= 300 us, with the
    # double reads down from 0.88 to <= 0.15 per host read.
    new = cell["ftlbench websearch_read", "LazyFTL"]
    assert new[2] <= 300.0 and float(new[6]) <= 0.15
    assert float(cell["ftlbench websearch_read", "LazyFTL by page"][6]) > 0.8
