"""Per-line ``# ftlint: disable`` works for every rule, FTL001-FTL013.

Each case is a minimal snippet with a ``{d}`` placeholder on the exact
line the rule reports.  The snippet must fire without the disable and go
silent with it - both for the named form (``disable=FTLxxx``) and the
bare form (``disable``) - and a disable naming a *different* rule must
not suppress it.
"""

import textwrap

import pytest

from repro.checks.lint import ALL_RULES, lint_source

RULES_BY_ID = {rule.RULE_ID: rule for rule in ALL_RULES}

#: rule id -> (scope, path, snippet with {d} on the reported line).
CASES = {
    "FTL001": ("core", "fixture.py", """
        import time
        t = time.time(){d}
    """),
    "FTL002": ("core", "fixture.py", """
        import random
        x = random.randrange(10){d}
    """),
    "FTL003": ("core", "fixture.py", """
        def retire(block):
            block.is_bad = True{d}
    """),
    "FTL004": ("core", "fixture.py", """
        def gc(self):{d}
            self._tracer.span_start("gc", "gc")
            self.collect()
    """),
    "FTL005": ("core", "fixture.py", """
        try:
            risky()
        except Exception:{d}
            log()
    """),
    "FTL006": ("core", "fixture.py", """
        def f(x, seen=[]):{d}
            pass
    """),
    "FTL007": ("ftl", "fixture.py", """
        class F:
            def __init__(self):
                self._page_map = {{}}{d}
    """),
    "FTL008": ("sim", "src/repro/sim/simulator.py", """
        def _replay(self, trace, responses):
            for request in trace.requests:
                op = request.op{d}
    """),
    "FTL009": ("core", "fixture.py", """
        def f(candidates, scanned):
            return [b for b in candidates if b not in set(scanned)]{d}
    """),
    "FTL010": ("core", "fixture.py", """
        def nuke(self, flash, pbn):
            flash.erase_block(pbn){d}
    """),
    "FTL011": ("core", "fixture.py", """
        class T:
            def apply(self, lpn, ppn):
                try:
                    self._umt.set(lpn, ppn){d}
                    self.flash.program_page(ppn)
                except IOError:
                    self.stats.errors += 1
    """),
    "FTL012": ("sim", "fixture.py", """
        def f():
            pending = set()
            for lpn in pending:{d}
                print(lpn)
    """),
    "FTL013": ("sim", "fixture.py", """
        # flowlint: hot
        def drain(self, rows):
            out = None
            for op in rows:
                out = lambda v: v + 1{d}
            return out
    """),
}


def run(rule_id, disable):
    scope, path, template = CASES[rule_id]
    source = textwrap.dedent(template).format(d=disable)
    violations = lint_source(source, path=path, scope=scope,
                             rules=[RULES_BY_ID[rule_id]])
    return [v.rule_id for v in violations]


def test_every_rule_has_a_case():
    assert set(CASES) == set(RULES_BY_ID)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_snippet_fires_without_disable(rule_id):
    assert run(rule_id, "") == [rule_id]


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_named_disable_suppresses(rule_id):
    assert run(rule_id, f"  # ftlint: disable={rule_id}") == []


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bare_disable_suppresses(rule_id):
    assert run(rule_id, "  # ftlint: disable") == []


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_disable_for_other_rule_does_not_suppress(rule_id):
    other = "FTL001" if rule_id != "FTL001" else "FTL002"
    assert run(rule_id, f"  # ftlint: disable={other}") == [rule_id]
