"""The one model of host-visible state: what a read of each lpn may return.

:class:`~repro.checks.flashsan.SanitizedFTL` drives it through every host
op, so the sanitizer's read-your-writes check and the crash checker's
durability oracle (:mod:`repro.checks.crashmc`) read against the same
record.  The rules, in order of strictness:

* **Acknowledged write** - once ``write(lpn, v)`` returns, ``v`` is
  durable: every later read of ``lpn``, powered or after recovery, must
  return exactly ``v``.
* **Unacknowledged (in-flight) write** - a write the power cut interrupted
  may surface as the old value or the new value, but never anything else
  (no torn third value, no silent disappearance of the *old* copy unless
  the new one took its place).
* **Acknowledged discard** - ``trim`` relaxes the contract: reads may
  return the pre-discard value or nothing at all.  A later acknowledged
  write re-tightens it.
* **Never-written page** - must read back empty; data appearing out of
  nowhere is a phantom (a stale or foreign mapping came back).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple


class ShadowModel:
    """Tracks acknowledged host state alongside a replay.

    Drive it with :meth:`begin` / :meth:`commit` around each mutating host
    op; if power is cut between the two, the op stays recorded as the
    single in-flight op whose effect is allowed-but-not-required after
    recovery.
    """

    def __init__(self, logical_pages: int):
        self.logical_pages = logical_pages
        #: lpn -> last acknowledged value (pages absent were never
        #: written or were discarded and have no obligation to hold data).
        self.acked: Dict[int, Any] = {}
        #: lpns whose last acknowledged mutating op was a discard: reads
        #: may return the retained pre-discard value or nothing.
        self.relaxed: Dict[int, Any] = {}
        #: The op the crash interrupted: ``(kind, lpn, value)`` or None.
        self.inflight: Optional[Tuple[str, int, Any]] = None
        self.acked_ops = 0

    # ------------------------------------------------------------------
    # Replay bookkeeping
    # ------------------------------------------------------------------
    def begin(self, kind: str, lpn: int, value: Any) -> None:
        """Record a mutating op (``"w"`` or ``"d"``) as in flight before
        issuing it."""
        self.inflight = (kind, lpn, value)

    def commit(self) -> None:
        """The op returned: fold its effect into acknowledged state."""
        assert self.inflight is not None, "commit without begin"
        kind, lpn, value = self.inflight
        if kind == "w":
            self.acked[lpn] = value
            self.relaxed.pop(lpn, None)
        elif lpn in self.acked:
            # Discard: keep the old value around as the relaxed option.
            self.relaxed[lpn] = self.acked.pop(lpn)
        elif lpn not in self.relaxed:
            self.relaxed[lpn] = None
        # else: a repeated discard - the scheme may still retain the data
        # from before the *first* discard, so the entry is kept as is.
        self.inflight = None
        self.acked_ops += 1

    def check_read(self, lpn: int, got: Any) -> Optional[str]:
        """Read-your-writes check while the device is still powered.

        Returns an error message when the read is inconsistent with the
        acknowledged history, else None.
        """
        if lpn in self.acked:
            expected = self.acked[lpn]
            if got != expected:
                return (f"powered read returned {got!r}, last acknowledged "
                        f"write was {expected!r}")
            return None
        if lpn in self.relaxed:
            old = self.relaxed[lpn]
            if got is not None and got != old:
                return (f"powered read after discard returned {got!r}; "
                        f"only {old!r} or nothing is allowed")
            return None
        if got is not None:
            return f"powered read of never-written page returned {got!r}"
        return None

    # ------------------------------------------------------------------
    # After a power cut
    # ------------------------------------------------------------------
    def allowed_after_crash(self, lpn: int) -> Set[Any]:
        """The set of values a post-recovery read of ``lpn`` may return.

        ``None`` in the set stands for "no data" (an unmapped read).
        """
        allowed: Set[Any] = set()
        if lpn in self.acked:
            allowed.add(self.acked[lpn])
        elif lpn in self.relaxed:
            allowed.add(self.relaxed[lpn])
            allowed.add(None)
        else:
            allowed.add(None)
        if self.inflight is not None:
            kind, in_lpn, value = self.inflight
            if in_lpn == lpn:
                if kind == "w":
                    allowed.add(value)
                else:  # interrupted discard may or may not have landed
                    allowed.add(None)
        return allowed
