"""One trace form: ``traces.model.Trace`` is the only class under
``src/repro`` that holds trace summaries, ``merge_traces`` the only
function that joins traces, and the retired columnar module stays gone -
checked in the source, so a second trace class or join cannot come back
unnoticed."""

import ast
import importlib.util
import pathlib
import re

from repro.traces import Trace

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def definitions(root):
    """``(path, node)`` of every class and function defined under
    ``root``, at any depth."""
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                yield path.relative_to(SRC).as_posix(), node


def classes_defining(*method_names):
    return [
        f"{path}:{node.name}" for path, node in definitions(SRC)
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in method_names for item in node.body)
    ]


class TestOneTraceForm:
    def test_one_class_holds_trace_summaries(self):
        assert classes_defining("page_ops", "footprint") == \
            ["traces/model.py:Trace"]

    def test_one_function_joins_traces(self):
        joins = [
            f"{path}:{node.name}" for path, node in definitions(SRC / "traces")
            if not isinstance(node, ast.ClassDef)
            and re.search(r"merge|concat|join|combine", node.name)
        ]
        assert joins == ["traces/model.py:merge_traces"]

    def test_no_columnar_module(self):
        assert not (SRC / "traces" / "columnar.py").exists()
        assert importlib.util.find_spec("repro.traces.columnar") is None

    def test_a_trace_stores_columns_not_requests(self):
        assert set(Trace.__slots__) == {
            "name", "ops", "lpns", "npages", "arrivals",
            "_page_ops", "_write_page_ops", "_max_lpn", "_footprint"}
