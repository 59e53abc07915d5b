#!/usr/bin/env python3
"""ftlint - project lint rules for the LazyFTL reproduction.

Usage::

    python tools/ftlint.py                # lint src/repro
    python tools/ftlint.py src tests      # lint specific trees
    python tools/ftlint.py --list-rules

Exit status: 0 when clean, 1 when any violation is found, 2 on usage
errors.  Violations print as ``path:line:col: FTLxxx message``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.checks.lint import ALL_RULES, lint_paths  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftlint", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths", nargs="*", default=[str(_REPO_ROOT / "src" / "repro")],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            scopes = ("all files" if rule.SCOPES is None
                      else ", ".join(sorted(rule.SCOPES)))
            print(f"{rule.RULE_ID}  {rule.MESSAGE}  [{scopes}]")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"ftlint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    violations = lint_paths(args.paths)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"\nftlint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
