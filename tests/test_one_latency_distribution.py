"""One latency distribution: ``obs.metrics.LatencyDistribution`` is the only
class under ``src/repro`` that answers percentile / quantile queries, and
the tracer keeps no metrics registry of its own - checked in the source,
so a second histogram class cannot come back unnoticed."""

import ast
import pathlib

from repro.obs.metrics import LatencyDistribution
from repro.sim import LatencyDistribution as SimLatencyDistribution
from repro.sim.metrics import LatencyDistribution as MetricsReexport

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def classes_defining(*method_names):
    """``path:class`` of every class under ``src/repro`` that defines one
    of ``method_names`` directly in its body."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in method_names for item in node.body):
                found.append(f"{path.relative_to(SRC).as_posix()}:{node.name}")
    return found


def tracer_init_parameters():
    tree = ast.parse((SRC / "obs" / "tracer.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Tracer":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        item.name == "__init__":
                    args = item.args
                    return [a.arg for a in
                            args.posonlyargs + args.args + args.kwonlyargs]
    raise AssertionError("Tracer.__init__ not found")


class TestOneLatencyDistribution:
    def test_one_class_answers_quantiles(self):
        assert classes_defining("percentile", "quantile") == \
            ["obs/metrics.py:LatencyDistribution"]

    def test_tracer_has_no_metrics_registry(self):
        params = tracer_init_parameters()
        assert "latency" in params  # the scan found the real signature
        assert "metrics" not in params

    def test_simulator_names_the_same_class(self):
        assert SimLatencyDistribution is LatencyDistribution
        assert MetricsReexport is LatencyDistribution
