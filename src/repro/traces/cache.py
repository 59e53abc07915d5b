"""Binary trace cache: disk-cached columns of parsed trace files.

Tokenising trace text (a multi-hundred-MB SPC file, or a saved trace) on
every benchmark invocation is pure overhead - the parse is deterministic
given the file.  This module persists a :class:`~repro.traces.model.Trace`'s
columns in a struct-packed binary format so the second load of an
unchanged file reads machine-typed arrays straight from disk.

Generated traces do not go through the cache.  A generator is a pure
function of its seeded parameters, and regenerating costs no more than
loading its columns back did (EXPERIMENTS.md, "One trace form: the cache
keeps parsed files only"), so caching it bought nothing measurable and
cost a key per generator.

File format (one trace per file, extension ``.rtc``)::

    header:  '<4sHBBQII' = magic b"RPTC", format version, flags,
             byte-order tag (1 little / 2 big), n requests,
             name length, CRC-32 of the payload
    payload: name bytes (UTF-8), ops (n x i8), lpns (n x i64),
             npages (n x i64)[, arrivals (n x f64) when flags bit 0]

Invalidation is by *key*, not by file inspection: the cache filename is a
SHA-256 over a canonical JSON encoding of the lookup key - source path +
``mtime_ns`` + size + parse parameters + the format version.  Touching
the source, changing a parameter, or bumping ``FORMAT_VERSION`` therefore
misses naturally; a corrupt or truncated cache file (bad magic, bad CRC,
wrong byte order) is treated as a miss and silently rebuilt.

The cache is on by default under ``~/.cache/repro-traces``; override the
directory with ``REPRO_TRACE_CACHE_DIR``/:func:`configure` or disable it
entirely with ``REPRO_TRACE_CACHE=0`` / ``replay-spc --no-trace-cache``.
All filesystem failures degrade to parsing in memory - a read-only home
directory costs performance, never correctness.

Instrumentation: the module-level :data:`stats` counters record hits,
misses, stores, builds and - fed by the text parsers themselves -
``text_parses``, which is how tests assert that a warmed cache performs
zero trace text parsing.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Callable, Optional

from .model import Trace

MAGIC = b"RPTC"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHBBQII")
_FLAG_ARRIVALS = 0x01
_BYTE_ORDER_TAG = 1 if sys.byteorder == "little" else 2


class CacheStats:
    """Process-wide cache observability counters (see module docstring)."""

    __slots__ = ("hits", "misses", "stores", "builds", "text_parses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.builds = 0
        self.text_parses = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"CacheStats({inner})"


#: Global counters; ``stats.reset()`` between measurements.
stats = CacheStats()


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def dumps_columnar(trace: Trace) -> bytes:
    """Serialise a trace's columns to the binary cache format."""
    name_bytes = trace.name.encode("utf-8")
    flags = 0
    payload = [name_bytes, trace.ops.tobytes(), trace.lpns.tobytes(),
               trace.npages.tobytes()]
    if trace.arrivals is not None:
        flags |= _FLAG_ARRIVALS
        payload.append(trace.arrivals.tobytes())
    body = b"".join(payload)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, flags, _BYTE_ORDER_TAG,
        len(trace), len(name_bytes), zlib.crc32(body),
    )
    return header + body


def loads_columnar(data: bytes) -> Optional[Trace]:
    """Deserialise the binary cache format; None on any corruption."""
    if len(data) < _HEADER.size:
        return None
    magic, version, flags, order, n, name_len, crc = _HEADER.unpack_from(data)
    if magic != MAGIC or version != FORMAT_VERSION or order != _BYTE_ORDER_TAG:
        return None
    body = data[_HEADER.size:]
    expected = name_len + n * (1 + 8 + 8)
    if flags & _FLAG_ARRIVALS:
        expected += n * 8
    if len(body) != expected or zlib.crc32(body) != crc:
        return None
    try:
        name = body[:name_len].decode("utf-8")
    except UnicodeDecodeError:
        return None
    offset = name_len
    ops = array("b")
    ops.frombytes(body[offset:offset + n])
    offset += n
    lpns = array("q")
    lpns.frombytes(body[offset:offset + n * 8])
    offset += n * 8
    npages = array("q")
    npages.frombytes(body[offset:offset + n * 8])
    offset += n * 8
    arrivals: Optional[array] = None
    if flags & _FLAG_ARRIVALS:
        arrivals = array("d")
        arrivals.frombytes(body[offset:offset + n * 8])
    return Trace.from_columns(ops, lpns, npages, arrivals, name=name)


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
def _key_digest(key: dict) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:40]


class TraceCache:
    """One cache directory of ``.rtc`` files, addressed by key digest."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path_for(self, key: dict) -> Path:
        return self.root / f"{_key_digest(key)}.rtc"

    def load(self, key: dict) -> Optional[Trace]:
        """The cached trace for ``key``, or None on miss/corruption."""
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            return None
        return loads_columnar(data)

    def store(self, key: dict, trace: Trace) -> bool:
        """Atomically persist a trace; False (never raises) on IO failure."""
        target = self.path_for(key)
        tmp = target.with_name(target.name + f".tmp{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(dumps_columnar(trace))
            os.replace(tmp, target)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        return True


# ----------------------------------------------------------------------
# Process-wide configuration
# ----------------------------------------------------------------------
_cache: Optional[TraceCache] = None
_resolved = False


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-traces"


def configure(directory=None, enabled: bool = True) -> None:
    """Pin the cache location (or disable it) for this process.

    ``configure()`` re-reads the environment; ``configure(enabled=False)``
    turns caching off; ``configure("/some/dir")`` pins a directory.
    """
    global _cache, _resolved
    if not enabled:
        _cache = None
    else:
        _cache = TraceCache(directory if directory is not None
                            else default_cache_dir())
    _resolved = True


def active() -> Optional[TraceCache]:
    """The process cache, resolving env configuration on first use."""
    global _cache, _resolved
    if not _resolved:
        flag = os.environ.get("REPRO_TRACE_CACHE", "1").strip().lower()
        if flag in ("0", "false", "off", "no"):
            _cache = None
        else:
            _cache = TraceCache(default_cache_dir())
        _resolved = True
    return _cache


def fetch(key: Optional[dict], build: Callable[[], Trace]) -> Trace:
    """Return the trace for ``key``, building (and storing) on a miss.

    A None key (a file that cannot be stat'ed) builds without the cache.
    Every call returns a fresh :class:`Trace` (cache files are re-read
    per fetch), so callers may rename the result freely.
    """
    cache = active()
    if key is None or cache is None:
        stats.builds += 1
        return build()
    trace = cache.load(key)
    if trace is not None:
        stats.hits += 1
        return trace
    stats.misses += 1
    stats.builds += 1
    trace = build()
    if cache.store(key, trace):
        stats.stores += 1
    return trace


def file_key(kind: str, path, **params) -> Optional[dict]:
    """Cache key for a parsed source file: identity + mtime/size + params.

    None when the file cannot be stat'ed (:func:`fetch` then falls
    through to the parser, which raises its usual error).
    """
    try:
        st = os.stat(path)
    except OSError:
        return None
    return {
        "kind": kind,
        "version": FORMAT_VERSION,
        "path": os.path.abspath(path),
        "mtime_ns": st.st_mtime_ns,
        "size": st.st_size,
        **params,
    }
