#!/usr/bin/env python3
"""check_all - the repository's one-command verification gate.

Runs, in order:

1. **lint** - ftlint's six syntactic rules (FTL001-FTL006) over the
   configured trees;
2. **pytest** - the tier-1 test suite (``PYTHONPATH=src pytest -q``);
3. **mypy** - static types for the ``[tool.mypy] files`` trees
   (reported as ``SKIPPED`` when mypy is not installed, unless
   ``--require-mypy`` - the default when ``$CI`` is set - makes a
   missing mypy a failure);
4. **trace schema** - generates a small end-to-end trace via
   ``python -m repro compare --sanitize --trace-out``, at
   ``--channels 1`` and ``--channels 4``, and validates each with
   ``tools/check_trace_schema.py`` (including cause-stack consistency);
5. **report** - renders a small latency-decomposition run report under
   ``--sanitize`` (so the per-op decomposition invariant is audited),
   at ``--channels 1`` and ``--channels 4``, saves each snapshot, and
   validates its schema with ``tools/check_trace_schema.py``.
   Both ``--sanitize`` stages also check every host read by content:
   ``SanitizedFTL`` writes a ``(lpn, version)`` token where the
   simulator sends no payload and checks each read against its
   host-state model;
6. **ftlbench** - ``benchmarks/ftlbench/run.py --smoke``: one smoke
   round of the repository benchmark (every workload in its own child
   process, about 5 s); exit code 1 on any failed output check (host
   ops match the trace, no redundant invalidates, repeats agree on
   every simulated statistic) or failed op (a replay that raises,
   read-your-writes on the aged device).  It gates that the measured
   paths work, not their speed - speed is judged on paired
   parent/change rounds (``--compare``);
7. **crashmc** - ``python -m repro crashcheck``: crash-consistency
   smoke (every program/erase boundary of a short mixed workload for
   each recovery-capable scheme, plus the ``--mutate`` oracle
   self-test).

Configuration lives in ``pyproject.toml`` under ``[tool.check_all]``
(lint paths, the trace smoke command).  Exit status 0 when every step
passes, 1 otherwise; each step's verdict is printed as it completes and
a per-stage wall-clock summary closes the run, so CI logs show exactly
which gate failed, which did not run, and where the time went.

The pytest stage is also the one differential gate: every way the one
replay loop can be driven (scalar, batched with epochs of any length,
traced, sanitized - where the device refuses runs) must reproduce the
committed golden snapshots (``tests/test_golden_stats.py``).  Every way
records its responses through one column and one numpy kernel
(``ResponseStats.record_many``, once per ``RESPONSE_CHUNK`` requests);
``tests/test_one_batch_path.py`` replays at chunks of 1 and 3.

Touching a run op - the device's ``read_run`` / ``program_run`` /
``invalidate_run``, ``relocate``, ``MappingStore.commit``, or a scheme's
host ``read_run`` / ``write_run`` - the quick loop before the whole gate
is ``python tools/gen_golden_stats.py --check`` (the two single-page
files must print ``0 fields differ``; only a change to what a
multi-page request *costs* may move ``engine_stats_multipage.json``, on
purpose) and ``pytest tests/test_golden_stats.py
tests/test_relocate_by_run.py tests/test_host_run_ops.py
tests/test_property_device.py tests/test_flash_chip.py
tests/test_flash_oob_stats.py`` (every replay gate against the
snapshots; run ops vs the page loop on twin devices; the fuzzed
run-vs-scalar device equivalence - ``read_run`` / ``program_run`` /
``invalidate_run`` - with ``read_run`` stopping where the page loop
stops; one implementation per raw op, traced or not; the OOB columns'
round trip and the per-page live-memory budget).

Run:  python tools/check_all.py [--skip pytest] [--require-mypy] ...
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Optional

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

STEPS = ("lint", "pytest", "mypy", "trace", "report",
         "ftlbench", "crashmc")


def load_config() -> dict:
    defaults = {
        "lint_paths": ["src/repro", "tools", "tests", "benchmarks",
                       "examples"],
        "trace_requests": 300,
        "report_requests": 2000,
        "crashmc_ops": 120,
    }
    pyproject = _REPO_ROOT / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return defaults
    with open(pyproject, "rb") as stream:
        data = tomllib.load(stream)
    defaults.update(data.get("tool", {}).get("check_all", {}))
    return defaults


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_step(name: str, argv: list) -> bool:
    print(f"== {name}: {' '.join(argv)}", flush=True)
    proc = subprocess.run(argv, cwd=_REPO_ROOT, env=_env_with_src())
    ok = proc.returncode == 0
    print(f"== {name}: {'OK' if ok else f'FAILED (exit {proc.returncode})'}",
          flush=True)
    return ok


def step_lint(config: dict) -> bool:
    return run_step("lint", [
        sys.executable, str(_REPO_ROOT / "tools" / "ftlint.py"),
        *config["lint_paths"],
    ])


def step_pytest(config: dict) -> bool:
    return run_step("pytest", [sys.executable, "-m", "pytest", "-q"])


def step_mypy(config: dict) -> Optional[bool]:
    """None - the stage did not run - when mypy is absent and not
    required: the summary must not list an unrun gate as ``OK``."""
    if importlib.util.find_spec("mypy") is None:
        if config.get("_require_mypy"):
            print("== mypy: FAILED (mypy not installed but required; "
                  "install the 'dev' extra)", flush=True)
            return False
        print("== mypy: SKIPPED (mypy not installed; config is in "
              "[tool.mypy] of pyproject.toml)", flush=True)
        return None
    return run_step("mypy", [sys.executable, "-m", "mypy"])


def step_trace(config: dict) -> bool:
    """Serial and 4-channel: a fully overlapped flash op on the striped
    device has a zero marginal makespan the schema must still accept."""
    with tempfile.TemporaryDirectory(prefix="check_all_") as tmp:
        for channels in ("1", "4"):
            trace_path = str(pathlib.Path(tmp) / f"smoke-{channels}.jsonl")
            produced = run_step(f"trace:generate:{channels}ch", [
                sys.executable, "-m", "repro", "compare",
                "--trace", "random",
                "--requests", str(config["trace_requests"]),
                "--blocks", "96", "--pages-per-block", "16",
                "--page-size", "512", "--logical-fraction", "0.7",
                "--channels", channels,
                "--schemes", "DFTL", "LazyFTL",
                "--sanitize",
                "--trace-out", trace_path,
            ])
            if not produced or not run_step(f"trace:schema:{channels}ch", [
                sys.executable,
                str(_REPO_ROOT / "tools" / "check_trace_schema.py"),
                trace_path,
            ]):
                return False
        return True


def step_report(config: dict) -> bool:
    """Report smoke: render a small run's dashboard, save its snapshot,
    and validate the snapshot schema (monotone quantiles, attribution
    fractions, series windows) with ``tools/check_trace_schema.py``.
    Runs under --sanitize so the latency-decomposition invariant is part
    of the flashsan audit, serial and 4-channel: channel waits, which
    every cut of the event fold carries, are nonzero only on the
    striped device."""
    with tempfile.TemporaryDirectory(prefix="check_all_") as tmp:
        for channels in ("1", "4"):
            snapshot_path = str(pathlib.Path(tmp) / f"report-{channels}.json")
            rendered = run_step(f"report:render:{channels}ch", [
                sys.executable, "-m", "repro", "report",
                "--trace", "random",
                "--requests", str(config["report_requests"]),
                "--blocks", "96", "--pages-per-block", "16",
                "--page-size", "512", "--logical-fraction", "0.7",
                "--channels", channels,
                "--sanitize",
                "--snapshot", snapshot_path,
            ])
            if not rendered or not run_step(f"report:schema:{channels}ch", [
                sys.executable,
                str(_REPO_ROOT / "tools" / "check_trace_schema.py"),
                snapshot_path,
            ]):
                return False
        return True


def step_ftlbench(config: dict) -> bool:
    return run_step("ftlbench", [
        sys.executable,
        str(_REPO_ROOT / "benchmarks" / "ftlbench" / "run.py"), "--smoke",
    ])


def step_crashmc(config: dict) -> bool:
    """Crash-consistency smoke: explore every boundary of a short mixed
    workload for each recovery-capable scheme, then run the --mutate
    oracle self-test (the checker must flag deliberate corruption), then
    re-explore both schemes on a 2-channel device so recovery is
    exercised against multi-way frontiers.  The exhaustive acceptance
    matrix is ``repro crashcheck --full``."""
    ops = str(config["crashmc_ops"])
    explored = run_step("crashmc:explore", [
        sys.executable, "-m", "repro", "crashcheck",
        "--scheme", "LazyFTL", "--scheme", "ideal",
        "--ops", ops,
    ])
    if not explored:
        return False
    mutated = run_step("crashmc:mutate", [
        sys.executable, "-m", "repro", "crashcheck",
        "--scheme", "LazyFTL", "--scheme", "ideal",
        "--ops", ops, "--mutate",
    ])
    if not mutated:
        return False
    return run_step("crashmc:2ch", [
        sys.executable, "-m", "repro", "crashcheck",
        "--scheme", "LazyFTL", "--scheme", "ideal", "--ops", ops,
        "--channels", "2",
    ])


RUNNERS = {
    "lint": step_lint,
    "pytest": step_pytest,
    "mypy": step_mypy,
    "trace": step_trace,
    "report": step_report,
    "ftlbench": step_ftlbench,
    "crashmc": step_crashmc,
}


def format_summary(results) -> list:
    """Render the per-stage timing table: ``(name, status, seconds)``
    triples -> aligned lines plus the total.  Split out from main() so
    the aggregation is unit-testable."""
    width = max((len(name) for name, _, _ in results), default=0)
    lines = ["check_all stage summary:"]
    total = 0.0
    for name, status, seconds in results:
        total += seconds
        lines.append(f"  {name:<{width}}  {status:<7}  {seconds:7.2f}s")
    lines.append(f"  {'total':<{width}}  {'':<7}  {total:7.2f}s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_all", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--skip", action="append", default=[],
                        choices=list(STEPS), metavar="STEP",
                        help=f"skip a step (choices: {', '.join(STEPS)}); "
                             "repeatable")
    parser.add_argument(
        "--require-mypy", action="store_true",
        default=bool(os.environ.get("CI")),
        help="fail (instead of skip) the mypy stage when mypy is not "
             "installed; default on when $CI is set",
    )
    args = parser.parse_args(argv)

    config = load_config()
    config["_require_mypy"] = args.require_mypy
    results = []  # (name, status, wall seconds)
    for name in STEPS:
        if name in args.skip:
            print(f"== {name}: SKIPPED (--skip)", flush=True)
            results.append((name, "SKIPPED", 0.0))
            continue
        started = time.perf_counter()
        ok = RUNNERS[name](config)
        elapsed = time.perf_counter() - started
        status = "SKIPPED" if ok is None else "OK" if ok else "FAILED"
        results.append((name, status, elapsed))
    print()
    for line in format_summary(results):
        print(line)
    failed = [name for name, status, _ in results if status == "FAILED"]
    print()
    if failed:
        print(f"check_all: FAILED ({', '.join(failed)})")
        return 1
    print("check_all: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
