"""Command line of ftlbench.

Two levels, one code path:

* **one workload** (``--workload NAME --seed N --seconds S --trace 0|1``)
  runs in this process and prints, as the last line of stdout, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` - end-to-end
  metrics with ``--trace 0``, per-layer metrics with ``--trace 1``;
* **the suite** (no ``--workload``) runs every workload that way, each in
  its own sequential child process so peak RSS and allocator state do
  not leak between workloads, prints every metric by name and unit, and
  with ``--out F`` appends the round to ``F`` (``F.spans.json`` holds the
  harness spans of a ``--traced`` round).

``--compare A.json B.json`` and ``--repeat-check`` judge sets of rounds;
see :mod:`.compare`.  Any failed output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import compare
from .metrics import END_TO_END, PER_LAYER, UNITS
from .workloads import PROFILES, WORKLOAD_BY_NAME, WORKLOADS

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
RUN_PY = PACKAGE_DIR / "run.py"
#: Everything the benchmark writes besides ``--out`` lands here (inside
#: the checkout, ignored by git).
SCRATCH = REPO_ROOT / ".bench_build" / "ftlbench"
#: Timed seconds per workload run (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 4
DEFAULT_SEED = 11
#: A child that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 600


def run_record(seed: int, cleared_env: Dict[str, Optional[str]]) -> dict:
    """Where and on what the numbers were taken."""
    from repro.perf.batch import backend_name

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "batch_backend": backend_name(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "cleared_env": cleared_env,
    }


def _metric_line(workload: str, metric: str, value: float) -> str:
    return f"{workload:16s} {metric:34s} {value:16.6f} {UNITS[metric]}"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    from repro.traces import cache as trace_cache

    from .harness import run_timed
    from .layers import run_layers
    from .spans import SpanRecorder
    from .steady import SteadyClock

    # Traces are generated on every run (setup_s pays for it): no cache.
    trace_cache.configure(enabled=False)
    workload = WORKLOAD_BY_NAME[args.workload]
    profile = PROFILES["smoke" if args.smoke else "full"]
    # The timed pass reports host times at reference speed; the per-layer
    # pass keeps the wall clock (a canary inside cProfile would be counted).
    spans = SpanRecorder(workload.name,
                         None if args.trace else SteadyClock())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with spans.span("run"):
        if args.trace:
            outcome = run_layers(workload, profile, args.seed, spans, SCRATCH)
            declared = PER_LAYER
        else:
            outcome = run_timed(workload, profile, args.seed,
                                args.seconds, spans)
            declared = END_TO_END
    # A pass that died early still prints every declared name.
    metrics = {m.name: outcome.metrics.get(m.name, 0.0) for m in declared}
    outcome.checks["all_metrics_emitted"] = \
        all(m.name in outcome.metrics for m in declared)
    for error in outcome.errors:
        print(f"ftlbench: {workload.name}: {error}", file=sys.stderr)
    for name, ok in outcome.checks.items():
        if not ok:
            print(f"ftlbench: {workload.name}: check failed: {name}",
                  file=sys.stderr)
    for name, value in metrics.items():
        print(_metric_line(workload.name, name, value))
    if args.detail_out:
        detail = {
            "metrics": metrics, "samples": outcome.samples,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "checks": outcome.checks, "errors": outcome.errors,
            "spans": spans.as_records(),
        }
        Path(args.detail_out).write_text(json.dumps(detail))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if outcome.correct else 1


# ----------------------------------------------------------------------
# The suite: every workload, one child process at a time
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool, tmp: Path) -> dict:
    detail_path = tmp / f"{workload}.{trace}.json"
    command = [
        sys.executable, str(RUN_PY), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail-out", str(detail_path),
    ]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
        status = f"exited {done.returncode}"
    except subprocess.TimeoutExpired:
        status = f"was killed after {CHILD_TIMEOUT_S} s"
    if not detail_path.is_file():
        return {"metrics": {}, "attempted": 1, "failed": 1, "checks": {},
                "errors": [f"child {status} without a result"],
                "spans": []}
    return json.loads(detail_path.read_text())


def run_round(seed: int, seconds: float, smoke: bool, traced: bool) -> dict:
    """One round: every workload, timed pass then (optionally) traced."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    round_: Dict[str, Any] = {"workloads": {}, "spans": []}
    with tempfile.TemporaryDirectory(dir=SCRATCH, prefix="round-") as tmp:
        for workload in WORKLOADS:
            timed = _child(workload.name, seed, seconds, 0, smoke, Path(tmp))
            entry = {key: timed[key] for key in
                     ("metrics", "attempted", "failed", "checks", "errors")}
            entry["samples"] = timed.get("samples", {})
            round_["spans"].extend(timed["spans"])
            if traced:
                layers = _child(workload.name, seed, seconds, 1, smoke,
                                Path(tmp))
                entry["layers"] = layers["metrics"]
                entry["attempted"] += layers["attempted"]
                entry["failed"] += layers["failed"]
                entry["checks"].update(layers["checks"])
                entry["errors"].extend(layers["errors"])
                round_["spans"].extend(layers["spans"])
            entry["failed_frac"] = entry["failed"] / entry["attempted"]
            round_["workloads"][workload.name] = entry
            _print_entry(workload.name, entry)
    return round_


def _print_entry(name: str, entry: dict) -> None:
    for group in ("metrics", "layers"):
        for metric, value in entry.get(group, {}).items():
            print(_metric_line(name, metric, value))
    print(f"{name:16s} {'failed_frac':34s} {entry['failed_frac']:16.6f} "
          f"share ({entry['failed']} of {entry['attempted']} ops)")
    for error in entry["errors"]:
        print(f"{name:16s} error: {error}")
    for check, ok in entry["checks"].items():
        if not ok:
            print(f"{name:16s} CHECK FAILED: {check}")


def round_ok(round_: dict) -> bool:
    return all(entry["failed"] == 0 and entry["metrics"]
               and all(entry["checks"].values())
               for entry in round_["workloads"].values())


def summarize_rounds(rounds: List[dict]) -> dict:
    """Per workload x metric: n, median and quartiles over the rounds."""
    summary: Dict[str, Dict[str, dict]] = {}
    for name in rounds[0]["workloads"]:
        summary[name] = {}
        for group in ("metrics", "layers"):
            for metric in rounds[0]["workloads"][name].get(group, {}):
                values = [r["workloads"][name][group][metric] for r in rounds
                          if metric in r["workloads"].get(name, {})
                          .get(group, {})]
                s = compare.summarize(values)
                summary[name][metric] = {
                    "n": s.n, "median": s.median, "q1": s.q1, "q3": s.q3,
                    "unit": UNITS[metric],
                }
    return summary


def run_suite(args: argparse.Namespace,
              cleared_env: Dict[str, Optional[str]]) -> int:
    config = {"profile": "smoke" if args.smoke else "full",
              "seed": args.seed, "seconds": args.seconds}
    result: Dict[str, Any] = {"config": config, "rounds": []}
    out = Path(args.out) if args.out else None
    if out is not None and out.is_file():
        result = json.loads(out.read_text())
        if result.get("config") != config:
            print(f"ftlbench: {out} holds rounds of another configuration "
                  f"({result.get('config')}); choose another --out",
                  file=sys.stderr)
            return 2
    round_ = run_round(args.seed, args.seconds, args.smoke, args.traced)
    spans = round_.pop("spans")
    round_["record"] = run_record(args.seed, cleared_env)
    result["rounds"].append(round_)
    result["summary"] = summarize_rounds(result["rounds"])
    if out is not None:
        out.write_text(json.dumps(result, indent=1))
        if args.traced:
            Path(f"{out}.spans.json").write_text(json.dumps(spans))
    print("run record: " + json.dumps(round_["record"]))
    return 0 if round_ok(round_) else 1


def run_repeat_check(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    sets = []
    for index in (1, 2):
        print(f"--- repeat-check: set {index} ---")
        round_ = run_round(args.seed, args.seconds, args.smoke, False)
        if not round_ok(round_):
            print("ftlbench: repeat-check: a set failed its output checks",
                  file=sys.stderr)
            return 1
        sets.append({"rounds": [round_]})
    failures = compare.agreement_failures(*sets)
    for failure in failures:
        print(f"ftlbench: repeat-check: {failure}", file=sys.stderr)
    print("repeat-check: " + ("FAILED" if failures else "two sets agree"))
    return 1 if failures else 0


def run_compare(paths: List[str]) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    if a["config"] != b["config"]:
        print("ftlbench: --compare needs two files of one configuration: "
              f"{a['config']} vs {b['config']}", file=sys.stderr)
        return 2
    table = compare.compare_results(a, b)
    print(f"A = {paths[0]} (parent), B = {paths[1]} (change)")
    print(compare.render(table))
    regressed = any(v.verdict == "regressed"
                    for row in table.values() for v in row.values())
    return 1 if regressed else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="ftlbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload run: repeats are "
                             "added until the timed regions sum to this "
                             "(the per-layer pass has a fixed size)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one workload: 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="128x32 device, <=5k requests, 2 repeats")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also run the per-layer pass")
    parser.add_argument("--out", help="suite: append this round to a file")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat-check", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None,
         cleared_env: Optional[Dict[str, Optional[str]]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return run_compare(args.compare)
    if args.workload:
        return run_workload(args)
    if args.repeat_check:
        return run_repeat_check(args)
    return run_suite(args, cleared_env or {})
