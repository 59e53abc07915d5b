"""Test configuration: make ``src/`` importable even without installation,
and point the binary trace cache at a per-session temporary directory so
tests never read or write the developer's ``~/.cache/repro-traces``
(hermeticity: a stale user cache could otherwise mask a generator change,
and tests would pollute it in return)."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Set the env var before any repro import resolves the cache location.
_CACHE_TMP = tempfile.mkdtemp(prefix="repro-trace-cache-")
os.environ["REPRO_TRACE_CACHE_DIR"] = _CACHE_TMP


def pytest_configure(config):
    # If repro.traces.cache was imported (and resolved) before this
    # conftest ran - e.g. by a plugin - re-pin it to the tmp directory.
    from repro.traces import cache

    cache.configure(_CACHE_TMP)


@pytest.fixture
def json_under_hash_seed():
    """``run(hash_seed, *argv)``: ``python *argv`` in a fresh interpreter
    under that ``PYTHONHASHSEED`` with ``src/`` importable; returns its
    stdout parsed as JSON."""
    def run(hash_seed, *argv):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        return json.loads(subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True,
            text=True, check=True, timeout=300).stdout)
    return run
