#!/usr/bin/env python3
"""Entry point of ftlbench: ``python benchmarks/ftlbench/run.py --help``.

Puts the simulator source (``src/``) and this package on the import path,
clears the environment overrides that would change which replay engine is
measured, and hands over to :mod:`ftlbench.cli`.
"""

import os
import sys
from pathlib import Path

#: Engine overrides cleared (and recorded) so every run measures the
#: default replay path with the default kernel backend.
ENGINE_ENV = ("REPRO_REPLAY_MODE", "REPRO_BATCH_FALLBACK")


def main() -> int:
    package = Path(__file__).resolve().parent
    src = package.parents[1] / "src"
    if not (src / "repro").is_dir():
        print(f"ftlbench: simulator source not found at {src}; run from a "
              "checkout of the whole repository", file=sys.stderr)
        return 2
    # Must happen before repro.perf.batch is imported: it reads
    # REPRO_BATCH_FALLBACK once, at import.
    cleared = {name: os.environ.pop(name, None) for name in ENGINE_ENV}
    sys.path[0] = str(package.parent)
    sys.path.insert(0, str(src))
    from ftlbench.cli import main as cli_main

    return cli_main(cleared_env=cleared)


if __name__ == "__main__":
    sys.exit(main())
