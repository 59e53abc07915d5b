"""The flow rules (FTL010-FTL013) plus FTL009: fixtures and unit tests.

Two layers:

* the ``fixtures/`` corpus - known-bad snippets with ``# expect: FTLxxx``
  markers; every marked line must be flagged by exactly the marked rule
  (run with only the expected rules selected, so the corpus stays a
  precise per-rule contract);
* targeted positive/negative snippets per rule, exercising the flow
  machinery the fixtures cannot (call-graph summaries, callback credit,
  alias resolution, guard evidence, reaching-defs set-typing).
"""

import pathlib
import re
import textwrap

import pytest

from repro.checks.lint import ALL_RULES, lint_source

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"
RULES_BY_ID = {rule.RULE_ID: rule for rule in ALL_RULES}
_EXPECT = re.compile(r"#\s*expect:\s*(FTL\d{3})")
_SCOPE = re.compile(r"#\s*scope:\s*(\w+)")


def lint(source, scope="core", rule_ids=None, path="fixture.py"):
    rules = None
    if rule_ids is not None:
        rules = [RULES_BY_ID[rid] for rid in rule_ids]
    return lint_source(textwrap.dedent(source), path=path, scope=scope,
                       rules=rules)


def flagged(source, rule_id, scope="core", path="fixture.py"):
    """(line, rule_id) pairs produced by one rule on one snippet."""
    return sorted({(v.line, v.rule_id)
                   for v in lint(source, scope=scope, rule_ids=[rule_id],
                                 path=path)})


# ----------------------------------------------------------------------
# The fixture corpus
# ----------------------------------------------------------------------
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))


def test_fixture_corpus_exists():
    names = {f.stem.split("_")[0] for f in FIXTURES}
    assert {"ftl009", "ftl010", "ftl011", "ftl012",
            "ftl013"} <= names


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.stem)
def test_fixture_is_flagged_exactly_as_marked(fixture):
    source = fixture.read_text(encoding="utf-8")
    scope_match = _SCOPE.search(source.splitlines()[0])
    assert scope_match, f"{fixture.name} missing '# scope:' header"
    scope = scope_match.group(1)

    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        for rule_id in _EXPECT.findall(line):
            expected.add((lineno, rule_id))
    assert expected, f"{fixture.name} has no '# expect:' markers"

    rule_ids = sorted({rule_id for _, rule_id in expected})
    violations = lint_source(
        source, path=str(fixture), scope=scope,
        rules=[RULES_BY_ID[rid] for rid in rule_ids],
    )
    got = {(v.line, v.rule_id) for v in violations}
    assert got == expected


# ----------------------------------------------------------------------
# FTL010 sub-check A: update/invalidate pairing
# ----------------------------------------------------------------------
class TestPairing:
    def test_direct_invalidate_satisfies(self):
        assert flagged("""
            class M:
                def remap(self, lpn, new_ppn):
                    old = self._umt.ppn_at(lpn)
                    if old is not None:
                        self.flash.invalidate_page(old)
                    self._umt.set(lpn, new_ppn)
        """, "FTL010") == []

    def test_helper_summary_satisfies(self):
        # The invalidation happens inside a module-local helper; the
        # call-graph summary must credit it.
        assert flagged("""
            class M:
                def _retire(self, ppn):
                    self.flash.invalidate_page(ppn)

                def remap(self, lpn, new_ppn):
                    old = self._umt.ppn_at(lpn)
                    self._retire(old)
                    self._umt.set(lpn, new_ppn)
        """, "FTL010") == []

    def test_callback_argument_satisfies(self):
        # LazyFTL's deferred invalidation: the invalidating function is
        # *passed* to commit(), never called directly here.
        assert flagged("""
            class M:
                def _deferred_invalidate(self, ppn):
                    self.flash.invalidate_page(ppn)

                def convert(self, groups):
                    old = self.gtd.get(0)
                    self.cmt.commit(groups, self._deferred_invalidate)
        """, "FTL010") == []

    def test_shared_store_rewrite_satisfies(self):
        # DFTL's eviction shape: the old copy is invalidated inside the
        # shared MappingStore (another module), so its ``program`` is
        # credited by contract; a same-named call on a non-map receiver
        # earns nothing.
        source = """
            class M:
                def _flush(self, tvpn):
                    content, _ = self._maps.checkout(tvpn)
                    self.{receiver}.program(tvpn, content)

                def lookup(self, lpn):
                    entry = self._cmt.get(lpn)
                    self._flush(lpn // 8)
                    self._cmt[lpn] = entry
        """
        assert flagged(source.format(receiver="_maps"), "FTL010") == []
        assert flagged(source.format(receiver="_chip"), "FTL010") == [
            (10, "FTL010")]

    def test_aliased_table_write_is_detected(self):
        # Pre-bound method idiom: the write goes through a local alias.
        assert flagged("""
            class M:
                def remap(self, lpn, new_ppn):
                    umt_set = self._umt.set
                    old = self._umt.ppn_at(lpn)
                    umt_set(lpn, new_ppn)
        """, "FTL010") == [(6, "FTL010")]

    def test_local_staging_dict_is_not_mapping_state(self):
        # Recovery-style scratch dicts are not protocol state.
        assert flagged("""
            def rebuild(oobs):
                map_best = {}
                prev = map_best.get(3)
                map_best.update({3: prev})
                return map_best
        """, "FTL010") == []

    def test_write_before_read_not_flagged(self):
        # The write is not reachable from the read: no pairing demand.
        assert flagged("""
            class M:
                def remap(self, lpn, new_ppn):
                    self._umt.set(lpn, new_ppn)
                    old = self._umt.ppn_at(lpn)
                    return old
        """, "FTL010") == []


# ----------------------------------------------------------------------
# FTL010 sub-check B: frontier PPNs programmed before escaping
# ----------------------------------------------------------------------
class TestFrontierEscape:
    def test_programmed_on_every_path_ok(self):
        assert flagged("""
            class M:
                def write(self, data):
                    ppn = self.frontier * self.pages_per_block + self.ptr
                    self.flash.program_page(ppn, data)
                    return ppn
        """, "FTL010") == []

    def test_escape_via_return_on_unprogrammed_path(self):
        assert flagged("""
            class M:
                def write(self, data, fast):
                    ppn = self.frontier * self.pages_per_block + self.ptr
                    if fast:
                        return ppn
                    self.flash.program_page(ppn, data)
                    return ppn
        """, "FTL010") == [(6, "FTL010")]

    def test_alloc_page_call_counts_as_frontier_def(self):
        assert flagged("""
            class M:
                def take(self):
                    ppn = self.pool.alloc_page()
                    self.pending = ppn
        """, "FTL010") == [(5, "FTL010")]

    def test_aliased_program_call_counts(self):
        # program_page pre-bound to a local, as the hot paths do.
        assert flagged("""
            class M:
                def write(self, data):
                    program_page = self.flash.program_page
                    ppn = self.frontier * self.pages_per_block + self.ptr
                    program_page(ppn, data)
                    return ppn
        """, "FTL010") == []

    def test_inline_oob_stamp_is_not_program_evidence(self):
        # Stamping fields on some page object is not a device program:
        # only a program_* call writes a page, so the PPN still escapes
        # unprogrammed (into the mapping update).
        assert flagged("""
            class M:
                def write(self, block, data, lpn):
                    wp = block.write_ptr
                    ppn = self.frontier * self.pages_per_block + wp
                    page = block.pages[wp]
                    page.state = VALID
                    page.data = data
                    page.oob = make_oob(lpn, self.seq)
                    self.umt.set(lpn, ppn)
                    return ppn
        """, "FTL010") == [(10, "FTL010")]

    def test_oob_stamp_on_unrelated_page_earns_no_credit(self):
        # OOB written to a page indexed by something other than the
        # frontier's write pointer does not program the frontier PPN.
        assert flagged("""
            class M:
                def write(self, block, data, lpn, other):
                    wp = block.write_ptr
                    ppn = self.frontier * self.pages_per_block + wp
                    page = block.pages[other]
                    page.oob = make_oob(lpn, self.seq)
                    self.umt.set(lpn, ppn)
        """, "FTL010") == [(8, "FTL010")]


# ----------------------------------------------------------------------
# FTL010 sub-check C: erase with relocation evidence
# ----------------------------------------------------------------------
class TestErase:
    def test_relocation_before_erase_ok(self):
        assert flagged("""
            class M:
                def collect(self, victim):
                    for ppn in victim.valid_ppns():
                        self.flash.invalidate_page(ppn)
                    self.flash.erase_block(victim.pbn)
        """, "FTL010") == []

    def test_validity_guard_counts_as_evidence(self):
        assert flagged("""
            class M:
                def reclaim(self, pbn):
                    if self.flash.block(pbn).valid_count == 0:
                        self.flash.erase_block(pbn)
        """, "FTL010") == []

    def test_erase_primitive_function_exempt(self):
        assert flagged("""
            class M:
                def _erase(self, pbn):
                    self.flash.erase_block(pbn)
        """, "FTL010") == []

    def test_erase_counts_accessor_not_an_erase(self):
        assert flagged("""
            class M:
                def wear(self):
                    counts = self.flash.erase_counts()
                    return max(counts)
        """, "FTL010") == []


# ----------------------------------------------------------------------
# FTL011: torn mapping state
# ----------------------------------------------------------------------
class TestTornState:
    def test_reraising_handler_ok(self):
        assert flagged("""
            class M:
                def apply(self, lpn, ppn):
                    try:
                        self._umt.set(lpn, ppn)
                        self.flash.program_page(ppn)
                    except IOError:
                        self._umt.set(lpn, None)
                        raise
        """, "FTL011") == []

    def test_write_after_last_raiser_ok(self):
        # Nothing can throw after the mapping write: state never tears.
        assert flagged("""
            class M:
                def apply(self, lpn, ppn):
                    try:
                        self.flash.program_page(ppn)
                        self._umt.set(lpn, ppn)
                    except IOError:
                        self.stats.errors += 1
        """, "FTL011") == []

    def test_subscript_store_counts_as_map_write(self):
        assert flagged("""
            class M:
                def apply(self, lpn, ppn):
                    try:
                        self._cmt[lpn] = ppn
                        self.flash.program_page(ppn)
                    except IOError:
                        self.stats.errors += 1
        """, "FTL011") == [(5, "FTL011")]

    def test_try_finally_without_handlers_ok(self):
        assert flagged("""
            class M:
                def apply(self, lpn, ppn):
                    try:
                        self._umt.set(lpn, ppn)
                        self.flash.program_page(ppn)
                    finally:
                        self.stats.ops += 1
        """, "FTL011") == []


# ----------------------------------------------------------------------
# FTL012: set iteration determinism
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_sorted_iteration_ok(self):
        assert flagged("""
            def f():
                pending = set()
                for lpn in sorted(pending):
                    print(lpn)
        """, "FTL012", scope="sim") == []

    def test_membership_and_reductions_ok(self):
        assert flagged("""
            def f(x):
                pending = set()
                hit = x in pending
                return len(pending), min(pending), hit
        """, "FTL012", scope="sim") == []

    def test_self_attribute_set_iteration_flagged(self):
        assert flagged("""
            class A:
                def __init__(self):
                    self._members = set()

                def drain(self):
                    for m in self._members:
                        print(m)
        """, "FTL012", scope="sim") == [(7, "FTL012")]

    def test_attr_rebound_to_non_set_not_flagged(self):
        # A conflicting non-set assignment disqualifies the attribute.
        assert flagged("""
            class A:
                def __init__(self):
                    self._members = set()

                def freeze(self):
                    self._members = sorted(self._members)

                def drain(self):
                    for m in self._members:
                        print(m)
        """, "FTL012", scope="sim") == []

    def test_reaching_defs_distinguish_paths(self):
        # Only the set-typed definition reaches the first loop; the
        # second loop sees the sorted list and must not be flagged.
        assert flagged("""
            def f(xs):
                order = set(xs)
                for x in order:
                    print(x)
                order = sorted(xs)
                for x in order:
                    print(x)
        """, "FTL012", scope="sim") == [(4, "FTL012")]


# ----------------------------------------------------------------------
# FTL013: hot-loop safety
# ----------------------------------------------------------------------
class TestHotLoop:
    def test_unmarked_function_exempt(self):
        assert flagged("""
            def cold(rows):
                for op in rows:
                    fn = lambda v: v + 1
                return fn
        """, "FTL013", scope="sim") == []

    def test_replay_registry_is_hot_by_name(self):
        assert flagged("""
            def _replay(self, trace, responses):
                for op in trace.ops:
                    fn = lambda v: v + 1
                return fn
        """, "FTL013", scope="sim",
            path="src/repro/sim/simulator.py") == [(4, "FTL013")]

    def test_prebound_lookup_ok(self):
        assert flagged("""
            class R:
                # flowlint: hot
                def drain(self, rows):
                    read_us = self.device.timing.read_us
                    total = 0
                    for op in rows:
                        total += read_us
                        total -= read_us
                    return total
        """, "FTL013", scope="sim") == []

    def test_rebound_root_exempt(self):
        # The root is refetched inside the loop (frontier rotation):
        # repeated lookups through it are legitimate.
        assert flagged("""
            class R:
                # flowlint: hot
                def drain(self, rows):
                    frontier = self.frontier
                    total = 0
                    for op in rows:
                        total += frontier.ptr
                        frontier = self.rotate(frontier)
                        total -= frontier.ptr
                    return total
        """, "FTL013", scope="sim") == []

    def test_none_guarded_tracer_exempt(self):
        assert flagged("""
            class R:
                # flowlint: hot
                def drain(self, rows, tracer):
                    total = 0
                    for op in rows:
                        if tracer is not None:
                            tracer.emit(op)
                            tracer.tick(op)
                        total += 1
                    return total
        """, "FTL013", scope="sim") == []


# ----------------------------------------------------------------------
# FTL009 + the recovery regression it was written for
# ----------------------------------------------------------------------
class TestSetRebuild:
    def test_loop_variant_set_not_flagged(self):
        # The set depends on the loop variable: not hoistable.
        assert flagged("""
            def f(groups, scanned):
                out = []
                for g in groups:
                    if g.pbn in set(g.peers):
                        out.append(g)
                return out
        """, "FTL009") == []

    def test_prebuilt_frozenset_not_flagged(self):
        assert flagged("""
            def f(candidates, scanned):
                scanned = frozenset(scanned)
                return [b for b in candidates if b not in scanned]
        """, "FTL009") == []

    def test_recovery_module_is_clean(self):
        # Regression: recovery.py:340 rebuilt set(full_scan) per
        # candidate; the prebuilt frozenset fix must keep it clean.
        recovery = (pathlib.Path(__file__).resolve().parents[2]
                    / "src" / "repro" / "core" / "recovery.py")
        source = recovery.read_text(encoding="utf-8")
        violations = lint_source(source, path=str(recovery),
                                 scope="core",
                                 rules=[RULES_BY_ID["FTL009"]])
        assert violations == []
        assert "frozenset(full_scan)" in source
