"""Tests for ftlint: positive + negative fixtures for every rule.

Each rule gets at least one snippet that must trigger it and one
"near-miss" that must not, plus engine-level tests for scope detection,
inline suppression, syntax-error handling, and the CLI contract
(exit 0 clean / 1 dirty / 2 usage; ``path:line:col: FTLxxx`` output).
"""

import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.checks.lint import ALL_RULES, lint_source, scope_of

TOOL = str(
    pathlib.Path(__file__).resolve().parent.parent / "tools" / "ftlint.py"
)


def run_tool(*args):
    return subprocess.run(
        [sys.executable, TOOL, *args],
        capture_output=True, text=True, timeout=120,
    )


def lint(source, scope="core"):
    return lint_source(textwrap.dedent(source), path="fixture.py",
                       scope=scope)


def rule_ids(source, scope="core"):
    return [v.rule_id for v in lint(source, scope=scope)]


class TestScopeDetection:
    def test_repro_subpackages(self):
        assert scope_of("src/repro/ftl/dftl.py") == "ftl"
        assert scope_of("/root/repo/src/repro/core/lazyftl.py") == "core"
        assert scope_of("src/repro/obs/tracer.py") == "obs"

    def test_top_level_repro_modules_have_no_scope(self):
        assert scope_of("src/repro/cli.py") is None

    def test_outside_repro(self):
        assert scope_of("tools/ftlint.py") is None
        assert scope_of("tests/test_ftlint.py") is None


class TestFTL001WallClock:
    def test_time_time_flagged(self):
        assert rule_ids("""
            import time
            def f():
                return time.time()
        """) == ["FTL001"]

    def test_perf_counter_flagged(self):
        assert "FTL001" in rule_ids("""
            import time
            start = time.perf_counter()
        """)

    def test_datetime_now_flagged(self):
        assert "FTL001" in rule_ids("""
            from datetime import datetime
            stamp = datetime.now()
        """)

    def test_datetime_module_qualified_flagged(self):
        assert "FTL001" in rule_ids("""
            import datetime
            stamp = datetime.datetime.now()
        """)

    def test_virtual_time_not_flagged(self):
        assert rule_ids("""
            def f(timing):
                return timing.page_read_us + 3
        """) == []

    def test_outside_scope_not_flagged(self):
        assert rule_ids("""
            import time
            t = time.time()
        """, scope="analysis") == []
        assert rule_ids("import time\nt = time.time()\n", scope=None) == []


class TestFTL002UnseededRandom:
    def test_global_rng_flagged(self):
        assert rule_ids("""
            import random
            x = random.randrange(10)
        """) == ["FTL002"]

    def test_argless_random_instance_flagged(self):
        assert rule_ids("""
            import random
            rng = random.Random()
        """) == ["FTL002"]

    def test_seeded_instance_ok(self):
        assert rule_ids("""
            import random
            rng = random.Random(42)
            y = rng.randrange(10)
        """) == []

    def test_instance_methods_ok(self):
        # Calls through a bound instance named anything but "random".
        assert rule_ids("""
            def f(rng):
                return rng.random() + rng.choice([1, 2])
        """) == []


class TestFTL003BlockMutation:
    def test_attribute_assignment_flagged(self):
        assert rule_ids("""
            def retire(flash):
                flash.is_bad = bytearray(8)
        """) == ["FTL003"]

    def test_augmented_assignment_flagged(self):
        assert rule_ids("""
            def bump(flash, pbn):
                flash.erase_count[pbn] += 1
        """) == ["FTL003"]

    def test_counter_array_rebind_flagged(self):
        assert "FTL003" in rule_ids("""
            def drift(flash):
                flash.valid_count = [0] * 8
        """)

    def test_subscript_and_slice_stores_flagged(self):
        # Positive fixture: every store form into a device array.
        assert rule_ids("""
            def stamp(self, ppn, oob):
                flash = self.flash
                flash.page_states[ppn] = 1
                flash.oob_seq[ppn] = oob.seq
                flash.page_data[ppn:ppn + 4] = [None] * 4
                self.flash.write_ptr[ppn // 64] += 1
        """) == ["FTL003"] * 4

    def test_oob_column_stores_flagged(self):
        # The four OOB columns are device state: an index store, and each
        # column of a tuple store, outside repro.flash is flagged.
        assert rule_ids("""
            def forge(flash, i, oob):
                flash.oob_lpn[i] = 7
                (flash.oob_seq[i], flash.oob_kind[i], flash.oob_cold[i],
                 other) = oob
        """) == ["FTL003"] * 4
        assert rule_ids("""
            def forge(self, i):
                self.oob_lpn[i] = 7
        """, scope="flash") == []

    def test_force_erase_call_flagged(self):
        assert rule_ids("""
            def nuke(flash, pbn):
                flash.force_erase(pbn)
        """) == ["FTL003"]

    def test_flash_scope_exempt(self):
        assert rule_ids("""
            def retire(self, pbn):
                self.is_bad[pbn] = 1
                self.force_erase(pbn)
        """, scope="flash") == []

    def test_reads_not_flagged(self):
        # Negative fixture: the arrays are public to read, alias and
        # copy; stores into a *copy* or into a payload object fetched
        # from page_data are not stores into device state.
        assert rule_ids("""
            def wear(flash, pbn, ppn):
                counts = list(flash.erase_count)
                counts[pbn] = 0
                states = flash.page_states
                content = flash.page_data[ppn]
                flash.page_data[ppn][3] = 7
                return (counts, states[ppn] == 1, content,
                        flash.write_ptr[pbn] + int(flash.is_bad[pbn]))
        """) == []


class TestFTL004SpanBalance:
    def test_unbalanced_span_flagged(self):
        assert rule_ids("""
            def gc(self):
                self._tracer.span_start("gc", "gc")
                self.collect()
        """) == ["FTL004"]

    def test_unbalanced_cause_flagged(self):
        assert rule_ids("""
            def convert(self):
                self._tracer.push_cause("convert")
        """) == ["FTL004"]

    def test_balanced_ok(self):
        assert rule_ids("""
            def gc(self):
                self._tracer.span_start("gc", "gc")
                try:
                    self.collect()
                finally:
                    self._tracer.span_end("gc")
        """) == []

    def test_nested_function_counts_separately(self):
        # Outer balanced, inner unbalanced: only the inner is flagged.
        violations = lint("""
            def outer(self):
                self._tracer.span_start("a", "b")
                def inner():
                    self._tracer.span_start("c", "d")
                self._tracer.span_end("x")
        """)
        assert [v.rule_id for v in violations] == ["FTL004"]
        assert "inner" in violations[0].message

    def test_obs_scope_exempt(self):
        assert rule_ids("""
            def span_start(self, name, cause):
                self._stack.append(name)
        """, scope="obs") == []


class TestFTL005ExceptHygiene:
    def test_bare_except_flagged(self):
        assert rule_ids("""
            try:
                risky()
            except:
                pass
        """, scope=None) == ["FTL005"]

    def test_broad_except_flagged(self):
        assert rule_ids("""
            try:
                risky()
            except Exception:
                log()
        """, scope=None) == ["FTL005"]

    def test_broad_tuple_flagged(self):
        assert "FTL005" in rule_ids("""
            try:
                risky()
            except (ValueError, Exception):
                pass
        """, scope=None)

    def test_reraise_ok(self):
        assert rule_ids("""
            try:
                risky()
            except Exception:
                cleanup()
                raise
        """, scope=None) == []

    def test_specific_exception_ok(self):
        assert rule_ids("""
            try:
                risky()
            except ValueError:
                pass
        """, scope=None) == []


class TestFTL006MutableDefaults:
    def test_list_literal_flagged(self):
        assert rule_ids("""
            def f(x, seen=[]):
                pass
        """, scope=None) == ["FTL006"]

    def test_dict_call_flagged(self):
        assert "FTL006" in rule_ids("""
            def f(x, cache=dict()):
                pass
        """, scope=None)

    def test_kwonly_default_flagged(self):
        assert "FTL006" in rule_ids("""
            def f(x, *, log={}):
                pass
        """, scope=None)

    def test_none_default_ok(self):
        assert rule_ids("""
            def f(x, seen=None, n=3, name="x"):
                pass
        """, scope=None) == []

    def test_tuple_default_ok(self):
        assert rule_ids("""
            def f(x, dims=(1, 2)):
                pass
        """, scope=None) == []


#: rule id -> minimal snippet with a ``{d}`` placeholder on the exact
#: line the rule reports.
DISABLE_CASES = {
    "FTL001": """
        import time
        t = time.time(){d}
    """,
    "FTL002": """
        import random
        x = random.randrange(10){d}
    """,
    "FTL003": """
        def retire(block):
            block.is_bad = True{d}
    """,
    "FTL004": """
        def gc(self):{d}
            self._tracer.span_start("gc", "gc")
            self.collect()
    """,
    "FTL005": """
        try:
            risky()
        except Exception:{d}
            log()
    """,
    "FTL006": """
        def f(x, seen=[]):{d}
            pass
    """,
}


@pytest.mark.parametrize("rule_id", sorted(DISABLE_CASES))
class TestDisables:
    """Per-line ``# ftlint: disable`` works for every rule: the snippet
    fires without it, goes silent under the named and the bare form, and
    a disable naming a *different* rule does not suppress it."""

    @staticmethod
    def run(rule_id, disable):
        [rule] = [r for r in ALL_RULES if r.RULE_ID == rule_id]
        source = textwrap.dedent(DISABLE_CASES[rule_id]).format(d=disable)
        return [v.rule_id for v in lint_source(
            source, path="fixture.py", scope="core", rules=[rule])]

    def test_snippet_fires_without_disable(self, rule_id):
        assert self.run(rule_id, "") == [rule_id]

    def test_named_disable_suppresses(self, rule_id):
        assert self.run(rule_id, f"  # ftlint: disable={rule_id}") == []

    def test_bare_disable_suppresses(self, rule_id):
        assert self.run(rule_id, "  # ftlint: disable") == []

    def test_disable_for_other_rule_does_not_suppress(self, rule_id):
        other = "FTL001" if rule_id != "FTL001" else "FTL002"
        assert self.run(rule_id, f"  # ftlint: disable={other}") == [rule_id]


class TestEngine:
    def test_every_rule_has_a_disable_case(self):
        assert set(DISABLE_CASES) == {r.RULE_ID for r in ALL_RULES}

    def test_inline_suppression_bare(self):
        assert rule_ids("""
            import random
            x = random.randrange(10)  # ftlint: disable
        """) == []

    def test_inline_suppression_named(self):
        src = """
            import random
            x = random.randrange(10)  # ftlint: disable=FTL002
        """
        assert rule_ids(src) == []

    def test_inline_suppression_wrong_rule_still_fires(self):
        assert rule_ids("""
            import random
            x = random.randrange(10)  # ftlint: disable=FTL001
        """) == ["FTL002"]

    def test_syntax_error_reported_not_crashed(self):
        violations = lint_source("def f(:\n", path="broken.py")
        assert [v.rule_id for v in violations] == ["FTL000"]

    def test_violations_sorted_by_position(self):
        violations = lint("""
            import random
            def g(a=[]):
                return random.random()
        """, scope="ftl")
        assert [v.rule_id for v in violations] == ["FTL006", "FTL002"]

    def test_render_format(self):
        [v] = lint("import random\nx = random.random()\n")
        assert v.render() == f"fixture.py:2:4: FTL002 {v.message}"

    def test_every_rule_has_id_and_message(self):
        ids = [rule.RULE_ID for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 6
        assert ids == [f"FTL{n:03d}" for n in range(1, 7)]
        assert all(rule.MESSAGE for rule in ALL_RULES)


class TestCli:
    def test_project_source_is_clean(self):
        result = run_tool("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_dirty_file_exits_one(self, tmp_path):
        bad = tmp_path / "repro" / "ftl" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.randrange(4)\n")
        result = run_tool(str(bad))
        assert result.returncode == 1
        assert "FTL002" in result.stdout
        assert f"{bad}:2:" in result.stdout

    def test_missing_path_exits_two(self):
        result = run_tool("no/such/path.py")
        assert result.returncode == 2

    def test_list_rules(self):
        result = run_tool("--list-rules")
        assert result.returncode == 0
        for rule in ALL_RULES:
            assert rule.RULE_ID in result.stdout
