"""Tests of the benchmark itself (run: ``pytest benchmarks/ftlbench``).

They pin what later PRs rely on: every name ``BENCHMARK.json`` declares
is emitted, simulated metrics are a function of the seed alone, the span
self-time arithmetic, failure counting at the harness boundary, and the
verdict rule of ``--compare``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flash import FlashGeometry, NandFlash
from repro.ftl import PageFTL
from repro.traces import cache as trace_cache

from . import compare
from .harness import run_timed, tail_mean
from .layers import package_of
from .metrics import END_TO_END, PER_LAYER, PROFILED_PACKAGES
from .spans import Span, SpanRecorder, self_times
from .steady import CANARY_REF_S, Region, SteadyClock
from .workloads import SMOKE, WORKLOAD_BY_NAME, WORKLOADS, warmup_traces

PACKAGE = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE.parents[1]
RUN_PY = PACKAGE / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def _no_trace_cache():
    """Generate every trace, as the benchmark does; restore afterwards."""
    trace_cache.configure(enabled=False)
    yield
    trace_cache.configure()


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_round(tmp_path_factory) -> dict:
    """One ``--smoke --traced`` suite round, shared by the tests below."""
    out = tmp_path_factory.mktemp("ftlbench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--smoke", "--traced",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    result["spans"] = json.loads(Path(f"{out}.spans.json").read_text())
    return result


def test_manifest_matches_declarations(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ftlbench"]
    assert [w["name"] for w in manifest["workloads"]] == \
        [w.name for w in WORKLOADS]
    assert [w["why"] for w in manifest["workloads"]] == \
        [w.why for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in PER_LAYER]
    names = [m.name for m in END_TO_END + PER_LAYER] + \
        [w.name for w in WORKLOADS]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert len(PER_LAYER) <= 128


def test_every_declared_name_is_emitted(smoke_round):
    round_ = smoke_round["rounds"][0]
    assert list(round_["workloads"]) == [w.name for w in WORKLOADS]
    for name, entry in round_["workloads"].items():
        assert list(entry["metrics"]) == [m.name for m in END_TO_END], name
        assert list(entry["layers"]) == [m.name for m in PER_LAYER], name
        assert entry["failed"] == 0 and entry["failed_frac"] == 0.0
        assert entry["attempted"] > 0
        assert all(entry["checks"].values()), entry["checks"]
        # None of the gated metrics may read 0 on any workload.
        assert all(value > 0 for value in entry["metrics"].values()), name


def test_run_record_and_summary(smoke_round):
    record = smoke_round["rounds"][0]["record"]
    assert {"git_sha", "python", "numpy", "batch_backend", "nproc",
            "seed", "cleared_env"} <= set(record)
    summary = smoke_round["summary"]["oltp_steady"]["replay_kops_per_s"]
    assert summary["n"] == 1 and summary["unit"] == "kops/s"
    assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_self_shares_sum_to_one(smoke_round):
    for name, entry in smoke_round["rounds"][0]["workloads"].items():
        shares = sum(entry["layers"][f"{package}.self_share"]
                     for package in PROFILED_PACKAGES + ("other",))
        assert shares == pytest.approx(1.0, abs=0.01), name


def test_layers_separate_the_workloads(smoke_round):
    layers = {name: entry["layers"] for name, entry
              in smoke_round["rounds"][0]["workloads"].items()}
    # The batch engine refuses striped devices; DFTL has no recovery.
    assert layers["oltp_4ch"]["perf.engine_engaged"] == 0.0
    assert layers["point_read_hot"]["perf.engine_engaged"] == 1.0
    assert layers["oltp_4ch"]["flash.overlap_x"] > 1.0
    assert layers["oltp_steady"]["flash.overlap_x"] == 1.0
    assert layers["oltp_dftl"]["core.recovery.pages_read"] == 0.0
    assert layers["oltp_steady"]["core.recovery.pages_read"] > 0.0


def test_spans_are_dumped_with_parents(smoke_round):
    spans = smoke_round["spans"]
    assert {"id", "name", "start", "end", "parent", "workload",
            "self_s"} <= set(spans[0])
    names = {span["name"] for span in spans}
    assert {"run", "traces.generate", "sim.build", "sim.warm_up",
            "sim.run", "sim.run_traced", "core.recover"} <= names
    assert {span["workload"] for span in spans} == \
        {w.name for w in WORKLOADS}


def test_one_workload_output_is_the_contract_object():
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "websearch_read",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [m.name for m in END_TO_END]
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PACKAGE, tmp_path / "benchmarks" / "ftlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ftlbench/run.py", "--workload",
         "oltp_steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "simulator source not found" in done.stderr


def test_same_seed_same_simulated_metrics_other_seed_other_trace():
    workload = WORKLOAD_BY_NAME["oltp_steady"]
    runs = [run_timed(workload, SMOKE, seed, 0.0,
                      SpanRecorder(workload.name)) for seed in (3, 3, 4)]
    sim = [{k: v for k, v in run.metrics.items() if k.startswith("sim_")}
           for run in runs]
    assert all(run.correct for run in runs)
    assert runs[0].digest == runs[1].digest
    assert sim[0] == sim[1]
    assert sim[0] != sim[2]
    a, b = (workload.trace(SMOKE, seed).to_columnar() for seed in (3, 4))
    assert a.lpns != b.lpns
    assert workload.trace(SMOKE, 3).to_columnar().lpns == a.lpns


def test_tail_mean_averages_the_samples_beyond_the_percentile():
    from repro.sim.metrics import LatencyDistribution

    dist = LatencyDistribution()
    for value in range(1, 1001):
        dist.add(float(value))
    assert dist.percentile(99.0) == 990.0
    assert tail_mean(dist, 99.0) == pytest.approx(995.5)
    assert tail_mean(dist, 100.0) == 1000.0


def test_span_self_time_is_parent_minus_child_cover():
    spans = [
        Span(0, "run", 0.0, 10.0, None, "w"),
        Span(1, "a", 1.0, 4.0, 0, "w"),
        Span(2, "b", 3.0, 6.0, 0, "w"),       # overlaps a by 1 s
        Span(3, "c", 9.0, 12.0, 0, "w"),      # runs past the parent
        Span(4, "a.inner", 1.5, 2.0, 1, "w"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_span_recorder_nests_by_call_stack():
    recorder = SpanRecorder("w")
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert recorder.durations("inner") == [inner.duration]


def test_region_divides_each_stretch_by_its_canary_slowdown():
    ref = CANARY_REF_S
    region = Region()
    # Canary samples at reference speed, then twice, then four times slower:
    # 1 s of work between the first two, 3 s between the last two.
    region.close([(0.0, ref), (ref + 1.0, 3 * ref + 1.0),
                  (3 * ref + 4.0, 7 * ref + 4.0)])
    assert region.samples == 3
    assert region.wall_s == pytest.approx(4.0)
    assert region.ref_s == pytest.approx(1.0 / 1.5 + 3.0 / 3.0)


def test_steady_spans_sample_the_canary_while_the_work_runs():
    recorder = SpanRecorder("w", SteadyClock(interval_s=0.01))
    with recorder.span("outer"):
        with recorder.span("work", steady=True) as work:
            total = sum(i * i for i in range(300_000))
    assert total > 0
    assert 0.0 < work.ref_s and 0.0 < work.work_s < work.duration
    assert work.seconds == work.ref_s
    assert recorder.named("outer")[0].ref_s is None
    with pytest.raises(RuntimeError):
        with recorder.span("a", steady=True):
            with recorder.span("b", steady=True):
                pass
    with recorder.span("after", steady=True) as after:
        pass
    assert after.ref_s is not None


def test_profile_rows_are_grouped_by_repro_package():
    assert package_of("/x/src/repro/core/lazyftl.py") == "core"
    assert package_of("/x/src/repro/flash/chip.py") == "flash"
    assert package_of("/x/src/repro/traces/io.py") == "other"
    assert package_of("/x/src/repro/cli.py") == "other"
    assert package_of("/usr/lib/python3/random.py") == "other"


class FlakyFTL(PageFTL):
    """Raises on the write that would take ``host_writes`` past a limit."""

    fail_at = 0

    def write(self, lpn, data=None):
        if self.stats.host_writes >= self.fail_at:
            raise RuntimeError("stub FTL: injected failure")
        return super().write(lpn, data)


def test_a_raising_ftl_is_counted_not_crashed():
    workload = WORKLOAD_BY_NAME["oltp_steady"]
    warm_writes = sum(t.write_page_ops
                      for t in warmup_traces(workload, SMOKE, 7))
    survives = 100  # measured-trace writes completed before the failure

    def build(workload, profile):
        device = profile.device
        flash = NandFlash(FlashGeometry(
            num_blocks=device.num_blocks,
            pages_per_block=device.pages_per_block,
            page_size=device.page_size))
        ftl = FlakyFTL(flash, profile.footprint)
        ftl.fail_at = warm_writes + survives
        return flash, ftl

    cols = workload.trace(SMOKE, 7).to_columnar()
    completed = writes = 0
    for op, npages in zip(cols.ops, cols.npages):
        if op and writes + npages > survives:
            completed += survives - writes
            break
        writes += npages if op else 0
        completed += npages
    outcome = run_timed(workload, SMOKE, 7, 0.0,
                        SpanRecorder(workload.name), build=build)
    assert not outcome.correct
    assert outcome.attempted == SMOKE.min_repeats * cols.page_ops
    assert outcome.failed == \
        SMOKE.min_repeats * (cols.page_ops - completed)
    assert len(outcome.errors) == SMOKE.min_repeats
    assert outcome.errors[0].startswith("RuntimeError: stub FTL")
    assert outcome.metrics["replay_kops_per_s"] == 0.0


def _rounds(values):
    return {"config": {}, "rounds": [
        {"workloads": {"w": {"metrics": {"replay_kops_per_s": v,
                                         "sim_waf": 2.0}}}}
        for v in values]}


def test_compare_verdicts_follow_the_pairs_rule():
    kops = END_TO_END[0]
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.judge(base, [v * 1.2 for v in base], kops).verdict == \
        "improved"
    assert compare.judge(base, [v * 0.7 for v in base], kops).verdict == \
        "regressed"
    assert compare.judge(base, base[::-1], kops).verdict == "unchanged"
    # Too few pairs, or a parent noisier than the bound: no verdict.
    assert compare.judge(base[:5], [v * 1.2 for v in base[:5]],
                         kops).verdict == "unresolved"
    noisy = [60.0, 140.0] * 5
    assert compare.judge(noisy, noisy[::-1], kops).verdict == "unresolved"
    # Simulated metrics repeat exactly, so one pair is enough.
    waf = next(m for m in END_TO_END if m.name == "sim_waf")
    assert compare.judge([2.0], [1.9], waf).verdict == "improved"
    assert compare.judge([2.0], [2.0], waf).verdict == "unchanged"
    assert compare.judge([2.0], [2.2], waf).verdict == "regressed"
    verdict = compare.judge(base, [v * 1.2 for v in base], kops)
    assert verdict.ratio == pytest.approx(1.2) and verdict.base == \
        pytest.approx(100.0)


def test_repeat_agreement_is_exact_for_simulated_metrics():
    a = _rounds([100.0])
    for metric in END_TO_END:
        a["rounds"][0]["workloads"]["w"]["metrics"].setdefault(
            metric.name, 1.0)
    b = json.loads(json.dumps(a))
    assert compare.agreement_failures(a, b) == []
    b["rounds"][0]["workloads"]["w"]["metrics"]["replay_kops_per_s"] = 95.0
    assert compare.agreement_failures(a, b) == []
    b["rounds"][0]["workloads"]["w"]["metrics"]["replay_kops_per_s"] = 70.0
    b["rounds"][0]["workloads"]["w"]["metrics"]["sim_waf"] = 2.0000001
    failures = compare.agreement_failures(a, b)
    assert len(failures) == 2
    assert any("must repeat exactly" in f for f in failures)
