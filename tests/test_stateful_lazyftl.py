"""Stateful (rule-based) property testing of LazyFTL.

Hypothesis drives arbitrary interleavings of writes, reads, flushes,
checkpoints, power losses and recoveries against a shadow model.  This is
the widest net in the suite: any interleaving that breaks read-your-writes,
loses acknowledged data across a crash, or leaves the FTL unusable after
recovery becomes a minimal reproducible counter-example.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import LazyConfig, LazyFTL, recover
from repro.flash import (
    UNIT_TIMING,
    FlashGeometry,
    NandFlash,
    PageState,
    PowerLossError,
)

LOGICAL = 64
CONFIG = LazyConfig(uba_blocks=2, cba_blocks=2, gc_free_threshold=3)


class LazyFTLMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.flash = NandFlash(
            FlashGeometry(num_blocks=30, pages_per_block=4, page_size=64),
            timing=UNIT_TIMING,
        )
        self.ftl = LazyFTL(self.flash, LOGICAL, CONFIG)
        self.shadow = {}
        self.version = 0
        self.powered = True
        self.inflight = None  # (lpn, attempted_value) of the failed write

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @precondition(lambda self: self.powered)
    @rule(lpn=st.integers(min_value=0, max_value=LOGICAL - 1))
    def write(self, lpn):
        token = (lpn, self.version)
        self.version += 1
        self.ftl.write(lpn, token)
        self.shadow[lpn] = token

    @precondition(lambda self: self.powered)
    @rule(lpn=st.integers(min_value=0, max_value=LOGICAL - 1))
    def read(self, lpn):
        assert self.ftl.read(lpn).data == self.shadow.get(lpn)

    @precondition(lambda self: self.powered)
    @rule()
    def flush(self):
        self.ftl.flush()
        assert len(self.ftl.umt) == 0

    @precondition(lambda self: self.powered)
    @rule()
    def checkpoint(self):
        self.ftl.checkpoint()

    @precondition(lambda self: self.powered)
    @rule(after=st.integers(min_value=0, max_value=12))
    def crash_during_writes(self, after):
        """Arm a fault, write until it trips, then power-fail."""
        self.flash.fault.arm_after_programs(after)
        lpn = 0
        token = None
        try:
            for i in range(after + 20):
                lpn = (lpn + 17) % LOGICAL
                token = (lpn, self.version)
                self.version += 1
                self.ftl.write(lpn, token)
                self.shadow[lpn] = token
        except PowerLossError:
            # The in-flight write is unacknowledged: recovery may surface
            # either the attempted value or the previous one.  Record the
            # ambiguity; recover_now resolves it against reality.
            self.inflight = (lpn, token)
            self.powered = False
        else:
            self.flash.fault.disarm()

    @precondition(lambda self: not self.powered)
    @rule()
    def recover_now(self):
        self.ftl, _ = recover(self.flash, LOGICAL, CONFIG)
        self.powered = True
        if self.inflight is not None:
            lpn, attempted = self.inflight
            got = self.ftl.read(lpn).data
            acceptable = {attempted, self.shadow.get(lpn)}
            assert got in acceptable, f"in-flight lpn {lpn}: {got!r}"
            if got is None:
                self.shadow.pop(lpn, None)
            else:
                self.shadow[lpn] = got
            self.inflight = None
        for lpn, token in self.shadow.items():
            assert self.ftl.read(lpn).data == token, f"lpn {lpn} lost"

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def no_merges_ever(self):
        if self.powered:
            assert self.ftl.stats.merges_total == 0

    @invariant()
    def umt_entries_point_at_valid_pages(self):
        if not self.powered:
            return
        for lpn, ppn in self.ftl.umt.items():
            assert self.flash.page_state(ppn) is PageState.VALID
            assert self.flash.oob(ppn).lpn == lpn

    def teardown(self):
        if not self.powered:
            self.ftl, _ = recover(self.flash, LOGICAL, CONFIG)
        for lpn, token in self.shadow.items():
            assert self.ftl.read(lpn).data == token


TestLazyFTLStateMachine = LazyFTLMachine.TestCase
TestLazyFTLStateMachine.settings = settings(
    max_examples=30,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
