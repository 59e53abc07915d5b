"""Command-line interface: run comparisons and inspect workloads.

Usage::

    python -m repro compare --trace financial1 --requests 20000
    python -m repro compare --trace random --schemes DFTL LazyFTL ideal
    python -m repro compare --trace random --trace-out events.jsonl --metrics
    python -m repro inspect-trace events.jsonl
    python -m repro characterize --trace tpcc --requests 50000
    python -m repro replay-spc path/to/Financial1.spc --max-requests 20000

The ``compare`` command reproduces the paper's headline comparison for one
workload on the headline device (see DESIGN.md) and prints the same table
the benchmarks record.  With ``--trace-out`` it additionally records every
simulated event (see repro.obs) to a JSONL file that ``inspect-trace``
decomposes into a per-cause "where did the time go" table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    COMPARISON_HEADERS,
    attribute_trace,
    comparison_rows,
    format_attribution,
    optimality_gap,
    read_trace,
)
from .checks import SanitizerViolation
from .checks.crashmc import (
    CrashCase,
    DeviceParams,
    check_case,
    count_boundaries,
    explore,
    shrink,
)
from .obs import JsonlSink, OpLatencyRecorder, Tracer
from .perf.sweep import SweepWorkerError
from .sim import HEADLINE_DEVICE, SCHEMES, DeviceSpec, compare_schemes
from .sim.factory import RECOVERABLE_SCHEMES
from .sim.report import format_table
from .traces import (
    Trace,
    cache as trace_cache,
    characterize,
    financial1,
    financial2,
    hot_cold,
    parse_spc_file,
    sequential,
    tpcc,
    uniform_random,
    websearch,
    zipf,
)

_GENERATORS = {
    "random": lambda n, fp, seed: uniform_random(n, fp, seed=seed,
                                                 name="random"),
    "sequential": lambda n, fp, seed: sequential(n, fp, request_pages=4,
                                                 seed=seed),
    "zipf": lambda n, fp, seed: zipf(n, fp, seed=seed),
    "hot-cold": lambda n, fp, seed: hot_cold(n, fp, seed=seed),
    "financial1": financial1,
    "financial2": financial2,
    "websearch": websearch,
    "tpcc": tpcc,
}


def _device_from_args(args: argparse.Namespace) -> DeviceSpec:
    return DeviceSpec(
        num_blocks=args.blocks,
        pages_per_block=args.pages_per_block,
        page_size=args.page_size,
        logical_fraction=args.logical_fraction,
        channels=args.channels,
    )


def _trace_from_args(args: argparse.Namespace, device: DeviceSpec) -> Trace:
    footprint = int(device.logical_pages * args.footprint_fraction)
    generator = _GENERATORS[args.trace]
    return generator(args.requests, footprint, args.seed)


def _add_device_arguments(parser: argparse.ArgumentParser) -> None:
    d = HEADLINE_DEVICE
    parser.add_argument("--blocks", type=int, default=d.num_blocks)
    parser.add_argument("--pages-per-block", type=int,
                        default=d.pages_per_block)
    parser.add_argument("--page-size", type=int, default=d.page_size)
    parser.add_argument("--logical-fraction", type=float,
                        default=d.logical_fraction)
    parser.add_argument(
        "--channels", metavar="N", type=int, default=1,
        help="independent channels of the device.  More than one builds "
             "a multi-channel device with overlapped command timing and "
             "striped allocation for LazyFTL / DFTL / ideal (default 1: "
             "serial device)")


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", choices=sorted(_GENERATORS),
                        default="financial1")
    parser.add_argument("--requests", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--footprint-fraction", type=float, default=0.8)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-cache-dir", metavar="DIR", default=None,
        help="directory for the binary trace cache (default: "
             "$REPRO_TRACE_CACHE_DIR or ~/.cache/repro-traces)")
    parser.add_argument(
        "--no-trace-cache", action="store_true",
        help="disable the binary trace cache (always re-parse the "
             "trace file)")


def _configure_cache(args: argparse.Namespace) -> None:
    """Apply the cache CLI flags before the trace file is parsed."""
    if args.no_trace_cache:
        trace_cache.configure(enabled=False)
    elif args.trace_cache_dir is not None:
        trace_cache.configure(args.trace_cache_dir)


def cmd_compare(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    trace = _trace_from_args(args, device)
    tracer = None
    recorder = OpLatencyRecorder() if args.metrics else None
    if args.trace_out or args.metrics:
        try:
            sinks = [JsonlSink(args.trace_out)] if args.trace_out else []
        except OSError as exc:
            print(f"cannot open --trace-out {args.trace_out}: {exc}",
                  file=sys.stderr)
            return 2
        tracer = Tracer(sinks=sinks, latency=recorder)
    if args.jobs > 1 and tracer is not None:
        print("--jobs > 1 cannot be combined with --trace-out/--metrics: "
              "the event stream cannot cross process boundaries",
              file=sys.stderr)
        return 2
    try:
        results = compare_schemes(
            trace,
            schemes=tuple(args.schemes),
            device=device,
            precondition="steady" if args.steady else True,
            tracer=tracer,
            sanitize=args.sanitize,
            jobs=args.jobs,
        )
    except SanitizerViolation as exc:
        print(exc.violation.render(), file=sys.stderr)
        return 3
    except SweepWorkerError as exc:
        # A parallel worker died (sanitizer violation or engine bug); its
        # traceback is embedded in the message.
        print(exc, file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            tracer.close()
    print(format_table(
        COMPARISON_HEADERS,
        comparison_rows(results),
        title=f"{trace.name}: {len(trace)} requests on "
              f"{device.num_blocks}-block device",
    ))
    if "ideal" in results:
        gap = optimality_gap(results)
        print("\nvs theoretically optimal:")
        for scheme in args.schemes:
            print(f"  {scheme:8s} {gap[scheme]:6.2f}x")
    if tracer is not None:
        print()
        print(format_attribution(tracer.attribution, schemes=args.schemes))
    if recorder is not None:
        print("\nmetrics:")
        for scheme in args.schemes:
            print(f"  {scheme}")
            counts = tracer.attribution.tally(scheme).counts()
            for name, value in sorted(counts.items()):
                print(f"    events.{name:21s} {value}")
            summary = recorder.scheme_summary(scheme) or {"classes": {}}
            for op_class, entry in summary["classes"].items():
                print(f"    latency.{op_class:20s} n={entry['count']} "
                      f"mean={entry['mean_us']:.1f} max={entry['max_us']:.1f}")
    if args.trace_out:
        print(f"\ntrace written to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_inspect_trace(args: argparse.Namespace) -> int:
    metas: List[dict] = []
    try:
        sink = attribute_trace(read_trace(args.path, on_meta=metas.append))
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 2
    schemes = sink.schemes()
    if not schemes:
        print(f"{args.path}: no events", file=sys.stderr)
        return 2
    print(format_attribution(
        sink, title=f"flash time by cause - {args.path}"
    ))
    for meta in metas:
        if meta.get("meta") == "ring" and meta.get("dropped"):
            print(
                f"\nWARNING: ring buffer (capacity {meta.get('capacity')}) "
                f"dropped {meta['dropped']:,} of "
                f"{meta.get('events_seen', 0):,} events - this trace is "
                "the most recent window, not the whole run",
                file=sys.stderr,
            )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import (
        collect_report,
        load_snapshot,
        render_report,
        save_snapshot,
    )

    if args.from_snapshot:
        try:
            snapshot = load_snapshot(args.from_snapshot)
        except (OSError, ValueError) as exc:
            print(f"{exc}", file=sys.stderr)
            return 2
        ring = None
    else:
        device = _device_from_args(args)
        trace = _trace_from_args(args, device)
        try:
            snapshot, _, ring = collect_report(
                args.scheme,
                trace,
                device=device,
                precondition="steady" if args.steady else True,
                window_us=args.window_us,
                ring_capacity=args.ring_capacity,
                sanitize=args.sanitize,
            )
        except SanitizerViolation as exc:
            print(exc.violation.render(), file=sys.stderr)
            return 3
    if args.snapshot:
        save_snapshot(snapshot, args.snapshot)
        print(f"snapshot written to {args.snapshot}", file=sys.stderr)
    if args.events_out and ring is not None:
        written = ring.dump(args.events_out)
        print(f"{written} events written to {args.events_out} "
              f"({ring.dropped} dropped by the ring)",
              file=sys.stderr)
    if args.json:
        import json as _json

        print(_json.dumps(snapshot, indent=1, sort_keys=True))
    else:
        print(render_report(snapshot))
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    device = _device_from_args(args)
    trace = _trace_from_args(args, device)
    c = characterize(trace)
    rows = [[key, value] for key, value in c.items()]
    print(format_table(["property", "value"], rows, title=trace.name))
    return 0


def cmd_replay_spc(args: argparse.Namespace) -> int:
    _configure_cache(args)
    device = _device_from_args(args)
    trace = parse_spc_file(
        args.path,
        page_size=device.page_size,
        max_requests=args.max_requests,
    )
    if trace.max_lpn >= device.logical_pages:
        print(
            f"trace footprint ({trace.max_lpn + 1} pages) exceeds the "
            f"device ({device.logical_pages} pages); enlarge --blocks",
            file=sys.stderr,
        )
        return 2
    results = compare_schemes(trace, schemes=tuple(args.schemes),
                              device=device)
    print(format_table(COMPARISON_HEADERS, comparison_rows(results),
                       title=f"replay of {args.path}"))
    return 0


def _crashcheck_one_repro(text: str, do_shrink: bool) -> int:
    """Replay a single reproducer string and report its verdict."""
    try:
        case = CrashCase.from_reproducer(text)
    except ValueError as exc:
        print(f"bad reproducer: {exc}", file=sys.stderr)
        return 2
    result = check_case(case)
    status = "tripped" if result.tripped else "clean power-off"
    print(f"{case.scheme} crash={case.crash_index}: {status}"
          f"{' - ' + result.trip if result.trip else ''}")
    if result.mutated:
        print(f"mutation: {result.mutated}")
    for violation in result.violations:
        print(f"  {violation}")
    if result.ok:
        print("verdict: no durability violations")
        return 0
    print(f"verdict: {len(result.violations)} violation(s)")
    if do_shrink:
        minimized = shrink(case)
        print(f"shrunk {minimized.original_ops} ops -> "
              f"{len(minimized.case.ops)} "
              f"({minimized.probes} probes)")
        print(f"reproducer: {minimized.reproducer}")
    else:
        print(f"reproducer: {case.reproducer()}")
    return 1


def cmd_crashcheck(args: argparse.Namespace) -> int:
    if args.repro is not None:
        return _crashcheck_one_repro(args.repro, args.shrink)
    device = DeviceParams(channels=args.channels)
    schemes = args.scheme or (["LazyFTL"] if not args.full
                              else list(RECOVERABLE_SCHEMES))
    if args.full:
        schemes = list(RECOVERABLE_SCHEMES)
        num_ops = max(args.ops, 2000)
    else:
        num_ops = args.ops
    exit_code = 0
    for scheme in schemes:
        if args.mutate:
            # Oracle self-test: corrupt one recovered mapping entry at
            # the last boundary and require the checker to notice.
            probe = CrashCase(scheme=scheme, crash_index=0,
                              seed=args.seed, num_ops=num_ops,
                              mutate=True, device=device)
            boundaries = count_boundaries(probe)
            case = CrashCase(scheme=scheme,
                             crash_index=max(0, boundaries - 1),
                             seed=args.seed, num_ops=num_ops,
                             mutate=True, device=device)
            result = check_case(case)
            if result.mutated and not result.ok:
                print(f"{scheme}: mutation detected "
                      f"({len(result.violations)} violation(s) for: "
                      f"{result.mutated})")
            else:
                print(f"{scheme}: MUTATION MISSED - oracle failed to "
                      f"flag deliberate corruption "
                      f"(mutated={result.mutated!r})", file=sys.stderr)
                exit_code = 1
            continue
        try:
            report = explore(scheme, num_ops=num_ops, seed=args.seed,
                             jobs=args.jobs, device=device)
        except SweepWorkerError as exc:
            print(exc, file=sys.stderr)
            return 3
        tripped = sum(1 for r in report.results if r.tripped)
        print(f"{scheme}: {num_ops} ops, {report.boundaries} "
              f"program/erase boundaries, {len(report.results)} crash "
              f"points explored ({tripped} tripped), "
              f"{len(report.failures)} failure(s)")
        if report.failures:
            exit_code = 1
            for failing in report.failures[:args.max_report]:
                print(f"  crash={failing.crash_index} "
                      f"({failing.trip or 'clean power-off'}):")
                for violation in failing.violations[:4]:
                    print(f"    {violation}")
                case = CrashCase(scheme=scheme,
                                 crash_index=failing.crash_index,
                                 seed=args.seed, num_ops=num_ops,
                                 device=device)
                print(f"    reproducer: {case.reproducer()}")
            if args.shrink:
                first = report.failures[0]
                minimized = shrink(
                    CrashCase(scheme=scheme,
                              crash_index=first.crash_index,
                              seed=args.seed, num_ops=num_ops,
                              device=device)
                )
                print(f"  shrunk {minimized.original_ops} ops -> "
                      f"{len(minimized.case.ops)} "
                      f"({minimized.probes} probes)")
                print(f"  minimized reproducer: {minimized.reproducer}")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LazyFTL (SIGMOD 2011) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="cross-scheme comparison")
    _add_trace_arguments(compare)
    _add_device_arguments(compare)
    compare.add_argument(
        "--schemes", nargs="+", choices=list(SCHEMES),
        # Default to the paper's five; superblock opts in.
        default=["BAST", "FAST", "DFTL", "LazyFTL", "ideal"],
    )
    compare.add_argument("--steady", action="store_true",
                         help="precondition to steady-state GC")
    compare.add_argument("--trace-out", metavar="FILE", default=None,
                         help="record every simulated event to a JSONL "
                              "trace (inspect with 'repro inspect-trace')")
    compare.add_argument("--metrics", action="store_true",
                         help="print each scheme's event counts and "
                              "per-op-class latency after the comparison "
                              "table")
    compare.add_argument("--sanitize", action="store_true",
                         help="run under the flashsan NAND-semantics "
                              "sanitizer (validates every raw op and "
                              "audits mapping state after the run)")
    compare.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="fan schemes over N worker processes "
                              "(default 1: in-process; results are "
                              "identical either way)")
    compare.set_defaults(func=cmd_compare)

    inspect = sub.add_parser(
        "inspect-trace",
        help="per-cause time attribution from a recorded JSONL trace",
    )
    inspect.add_argument("path", help="JSONL trace from compare --trace-out")
    inspect.set_defaults(func=cmd_inspect_trace)

    report = sub.add_parser(
        "report",
        help="latency-decomposition run report: per-op-class tail "
             "quantiles with per-cause breakdowns and time-series",
    )
    _add_trace_arguments(report)
    _add_device_arguments(report)
    report.add_argument("--scheme", choices=list(SCHEMES),
                        default="LazyFTL")
    report.add_argument("--steady", action="store_true",
                        help="precondition to steady-state GC")
    report.add_argument("--sanitize", action="store_true",
                        help="run under flashsan (includes the latency-"
                             "decomposition invariant in the audit)")
    report.add_argument("--json", action="store_true",
                        help="print the snapshot as JSON instead of the "
                             "terminal dashboard")
    report.add_argument("--snapshot", metavar="FILE", default=None,
                        help="also save the snapshot JSON to FILE")
    report.add_argument("--from-snapshot", metavar="FILE", default=None,
                        help="render a previously saved snapshot instead "
                             "of running a simulation")
    report.add_argument("--events-out", metavar="FILE", default=None,
                        help="dump the retained event ring to a JSONL "
                             "trace (with a completeness meta record)")
    report.add_argument("--ring-capacity", type=int, default=0,
                        metavar="N",
                        help="retain the last N events in memory "
                             "(default 0: no event ring)")
    report.add_argument("--window-us", type=float, default=None,
                        help="time-series window in simulated "
                             "microseconds (default 100000)")
    report.set_defaults(func=cmd_report)

    charac = sub.add_parser("characterize", help="workload statistics")
    _add_trace_arguments(charac)
    _add_device_arguments(charac)
    charac.set_defaults(func=cmd_characterize)

    replay = sub.add_parser("replay-spc", help="replay a real SPC trace")
    replay.add_argument("path")
    replay.add_argument("--max-requests", type=int, default=50000)
    replay.add_argument("--schemes", nargs="+",
                        default=["DFTL", "LazyFTL", "ideal"],
                        choices=list(SCHEMES))
    _add_device_arguments(replay)
    _add_cache_arguments(replay)
    replay.set_defaults(func=cmd_replay_spc)

    crash = sub.add_parser(
        "crashcheck",
        help="exhaustive crash-consistency model check: cut power at "
             "every program/erase boundary, recover, verify durability",
    )
    crash.add_argument("--scheme", action="append",
                       choices=list(RECOVERABLE_SCHEMES), default=None,
                       help="scheme to check (repeatable; default "
                            "LazyFTL, or all with --full)")
    crash.add_argument("--ops", type=int, default=400,
                       help="workload length in host ops (default 400)")
    crash.add_argument("--seed", type=int, default=0)
    crash.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan crash points over N worker processes "
                            "(verdicts are identical to a serial run)")
    crash.add_argument("--shrink", action="store_true",
                       help="minimize the first failing case with delta "
                            "debugging and print its reproducer")
    crash.add_argument("--mutate", action="store_true",
                       help="oracle self-test: corrupt one recovered "
                            "mapping entry and require detection")
    crash.add_argument("--full", action="store_true",
                       help="exhaustive acceptance matrix: every "
                            "recovery-capable scheme, >= 2000 ops")
    crash.add_argument("--channels", metavar="N", type=int, default=1,
                       help="channels of the checker's small device "
                            "(default 1)")
    crash.add_argument("--repro", metavar="STRING", default=None,
                       help="replay one crashmc:v1 reproducer string")
    crash.add_argument("--max-report", type=int, default=5,
                       help="failing crash points to detail (default 5)")
    crash.set_defaults(func=cmd_crashcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
