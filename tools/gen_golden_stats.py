#!/usr/bin/env python3
"""Regenerate the golden engine-statistics snapshot.

Runs the canonical golden workload (see :mod:`repro.sim.golden`) through
every FTL scheme and writes the digests to
``tests/golden/engine_stats.json`` (and the 4-channel, multi-page and
merge workloads to ``engine_stats_4ch.json`` /
``engine_stats_multipage.json`` / ``engine_stats_merges.json``, and the
hashes of the workloads' columns to ``trace_digests.json``).
``tests/test_golden_stats.py``
compares the live engine against this file bit-for-bit, so regenerate it
ONLY when a behaviour change is intentional and understood - never to
"fix" a failing golden test after a refactor that was supposed to be
statistics-neutral.

Run:  PYTHONPATH=src python tools/gen_golden_stats.py [--check]

``--check`` writes nothing: it regenerates in memory and prints what an
intentional change moved, one line per entry and field (``scheme/trace``,
field, old -> new) - the review a bare pytest ``==`` truncates - and exits
1 if anything differs.  It is a manual tool: ``check_all``'s pytest step
already replays all four files, and a second replay there would tell
nothing new.  A change to a host run op (``read_run`` / ``write_run``) may
move ``engine_stats_multipage.json`` only: ``engine_stats.json`` and
``engine_stats_4ch.json`` hold single-page traces and must print ``0 fields
differ``.  ``engine_stats_merges.json`` (the five log-block schemes over an
in-order-rewrite trace, with a hash of the traced event stream) moves only
when a merge does.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Iterator, Tuple

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.sim.golden import (  # noqa: E402
    collect_golden_digests,
    collect_golden_digests_4ch,
    collect_golden_digests_merges,
    collect_golden_digests_multipage,
    collect_trace_digests,
)

_GOLDEN_DIR = _REPO_ROOT / "tests" / "golden"
#: Four snapshot files on purpose: the serial one keeps its exact key
#: set (its test asserts key-set equality, so adding digests there would
#: break the seed gate), the 4-channel one pins the striped/overlapped
#: engine for the schemes that opt in, the multi-page one the host run ops,
#: the merge one the switch / partial merges and the merge spans.  The
#: fifth holds no statistics: it hashes the workloads' columns.
SNAPSHOTS = (
    (_GOLDEN_DIR / "engine_stats.json", collect_golden_digests),
    (_GOLDEN_DIR / "engine_stats_4ch.json", collect_golden_digests_4ch),
    (_GOLDEN_DIR / "engine_stats_multipage.json",
     collect_golden_digests_multipage),
    (_GOLDEN_DIR / "engine_stats_merges.json", collect_golden_digests_merges),
    (_GOLDEN_DIR / "trace_digests.json", collect_trace_digests),
)


def _write(path: pathlib.Path, digests: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(digests, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print(f"wrote {len(digests)} digests to {path}")


def flatten(value: object, prefix: str = "") -> Iterator[Tuple[str, object]]:
    """``(dotted field, leaf)`` pairs of a digest, nested dicts walked."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from flatten(value[key], f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, value


def diff_digests(old: dict, new: dict) -> list:
    """``(entry, field, old, new)`` for every leaf that differs; a missing
    entry or field reads ``None`` on its side."""
    rows = []
    for entry in sorted(set(old) | set(new)):
        before = dict(flatten(old.get(entry, {})))
        after = dict(flatten(new.get(entry, {})))
        for field in sorted(set(before) | set(after)):
            if before.get(field) != after.get(field):
                rows.append(
                    (entry, field, before.get(field), after.get(field)))
    return rows


def _check(path: pathlib.Path, digests: dict) -> int:
    # Through JSON, as the committed side went: int keys become strings.
    rows = diff_digests(json.loads(path.read_text(encoding="utf-8")),
                        json.loads(json.dumps(digests)))
    for entry, field, old, new in rows:
        print(f"{path.name}: {entry}: {field}: {old!r} -> {new!r}")
    entries = len({row[0] for row in rows})
    print(f"{path.name}: {len(rows)} fields differ in {entries} of "
          f"{len(digests)} entries")
    return 1 if rows else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; print a per-entry, per-field diff against the "
             "committed files and exit 1 if there is one")
    args = parser.parse_args()
    if args.check:
        return max(_check(path, collect()) for path, collect in SNAPSHOTS)
    for path, collect in SNAPSHOTS:
        _write(path, collect())
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
