"""tools/check_all.py: stage aggregation, timing summary, --require-mypy.

The gate script is subprocess-driven and stdlib-only, so these tests load
it by path and drive ``main()`` with stubbed stage runners - no real
pytest/ftlbench subprocesses are spawned.
"""

import importlib.util
import pathlib
import sys

import pytest

_TOOL = (pathlib.Path(__file__).resolve().parent.parent
         / "tools" / "check_all.py")


@pytest.fixture()
def check_all(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_all_under_test",
                                                  _TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "check_all_under_test", module)
    spec.loader.exec_module(module)
    return module


class TestFormatSummary:
    def test_totals_and_alignment(self, check_all):
        lines = check_all.format_summary([
            ("lint", "OK", 1.25),
            ("pytest", "FAILED", 2.5),
            ("mypy", "SKIPPED", 0.0),
        ])
        assert lines[0] == "check_all stage summary:"
        assert "lint" in lines[1] and "OK" in lines[1]
        assert "pytest" in lines[2] and "FAILED" in lines[2]
        assert lines[-1].strip().startswith("total")
        assert "3.75s" in lines[-1]

    def test_empty(self, check_all):
        lines = check_all.format_summary([])
        assert lines[0] == "check_all stage summary:"
        assert "0.00s" in lines[-1]


class TestAggregation:
    def _stub_stages(self, check_all, monkeypatch, outcomes):
        monkeypatch.setattr(check_all, "STEPS", tuple(outcomes))
        monkeypatch.setattr(check_all, "RUNNERS", {
            name: (lambda ok: lambda config: ok)(ok)
            for name, ok in outcomes.items()
        })

    def test_all_ok_exits_zero(self, check_all, monkeypatch, capsys):
        self._stub_stages(check_all, monkeypatch,
                          {"a": True, "b": True})
        assert check_all.main([]) == 0
        out = capsys.readouterr().out
        assert "check_all: all gates passed" in out
        assert "check_all stage summary:" in out

    def test_single_failure_exits_nonzero(self, check_all, monkeypatch,
                                          capsys):
        self._stub_stages(check_all, monkeypatch,
                          {"a": True, "b": False, "c": True})
        assert check_all.main([]) == 1
        out = capsys.readouterr().out
        assert "check_all: FAILED (b)" in out

    def test_every_failure_is_listed(self, check_all, monkeypatch,
                                     capsys):
        self._stub_stages(check_all, monkeypatch,
                          {"a": False, "b": True, "c": False})
        assert check_all.main([]) == 1
        assert "check_all: FAILED (a, c)" in capsys.readouterr().out

    def test_skip_excludes_stage_from_failures(self, check_all,
                                               monkeypatch, capsys):
        self._stub_stages(check_all, monkeypatch,
                          {"a": False, "b": True})
        assert check_all.main(["--skip", "a"]) == 0
        out = capsys.readouterr().out
        assert "a: SKIPPED (--skip)" in out
        assert "all gates passed" in out

    def test_summary_reflects_stage_status(self, check_all, monkeypatch,
                                           capsys):
        self._stub_stages(check_all, monkeypatch,
                          {"a": True, "b": False})
        check_all.main(["--skip", "a"])
        summary = capsys.readouterr().out.split(
            "check_all stage summary:")[1]
        assert "SKIPPED" in summary
        assert "FAILED" in summary


class TestRequireMypy:
    def test_missing_mypy_fails_when_required(self, check_all,
                                              monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: None)
        assert check_all.step_mypy({"_require_mypy": True}) is False

    def test_missing_mypy_skips_when_not_required(self, check_all,
                                                  monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: None)
        assert check_all.step_mypy({"_require_mypy": False}) is None

    def test_unrun_stage_reads_skipped_in_the_summary(self, check_all,
                                                      monkeypatch, capsys):
        # A stage that did not run is neither OK nor a failure.
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: None)
        monkeypatch.setattr(check_all, "STEPS", ("mypy",))
        assert check_all.main([]) == 0
        summary = capsys.readouterr().out.split(
            "check_all stage summary:")[1]
        assert "SKIPPED" in summary and "OK" not in summary
        assert check_all.main(["--require-mypy"]) == 1
        assert "check_all: FAILED (mypy)" in capsys.readouterr().out


class TestStageList:
    def test_stages_in_order(self, check_all):
        # No differential stage of its own: the pytest stage's golden
        # gates replay every engine configuration against the snapshots.
        assert check_all.STEPS == ("lint", "pytest", "mypy", "trace",
                                   "report", "examples", "ftlbench",
                                   "crashmc")
        assert set(check_all.RUNNERS) == set(check_all.STEPS)


class TestFtlbenchStage:
    def test_ftlbench_replaced_perfbench(self, check_all):
        assert "ftlbench" in check_all.STEPS
        assert "perfbench" not in check_all.STEPS
        assert set(check_all.RUNNERS) == set(check_all.STEPS)

    def test_stage_runs_the_smoke_round(self, check_all, monkeypatch):
        seen = []
        monkeypatch.setattr(check_all, "run_step",
                            lambda name, argv: seen.append(argv) or True)
        assert check_all.step_ftlbench({}) is True
        (argv,) = seen
        assert argv[1].endswith("benchmarks/ftlbench/run.py")
        assert argv[2:] == ["--smoke"]


class TestExamplesStage:
    def test_stage_runs_every_example(self, check_all, monkeypatch):
        seen = []
        monkeypatch.setattr(check_all, "run_step",
                            lambda name, argv: seen.append(argv) or True)
        assert check_all.step_examples({}) is True
        examples = sorted(_TOOL.parent.parent.glob("examples/*.py"))
        assert len(examples) == 6
        assert [argv[1:] for argv in seen] == [[str(p)] for p in examples]


class TestSmokeStages:
    @pytest.mark.parametrize("stage", ["trace", "report"])
    def test_stage_runs_one_and_four_channels(self, check_all, monkeypatch,
                                             stage):
        seen = []
        monkeypatch.setattr(check_all, "run_step",
                            lambda name, argv: seen.append((name, argv))
                            or True)
        config = {"trace_requests": 10, "report_requests": 10}
        assert check_all.RUNNERS[stage](config) is True
        runs = [(name, argv[argv.index("--channels") + 1])
                for name, argv in seen if "--channels" in argv]
        assert [channels for _, channels in runs] == ["1", "4"]
        assert all(name.endswith(f":{channels}ch")
                   for name, channels in runs)
        assert all("--geometry" not in argv for _, argv in seen)


class TestLintStage:
    def test_one_lint_stage(self, check_all):
        assert [s for s in check_all.STEPS if "lint" in s] == ["lint"]

    def test_stage_runs_every_rule_over_the_configured_trees(
            self, check_all, monkeypatch):
        seen = []
        monkeypatch.setattr(check_all, "run_step",
                            lambda name, argv: seen.append(argv) or True)
        assert check_all.step_lint({"lint_paths": ["src/repro", "tools"]})
        (argv,) = seen
        assert argv[1].endswith("tools/ftlint.py")
        assert argv[2:] == ["src/repro", "tools"]

    def test_skip_choices_follow_the_stages(self, check_all):
        with pytest.raises(SystemExit):
            check_all.main(["--skip", "ftlint"])  # a stage name no more
