"""Verdicts between two sets of runs (choosing-metrics sections 6 and 8).

A result file holds one value per metric x workload x round.  Rounds of
the parent (A) and the change (B) are paired by position; run them
alternating which side goes first.

* Simulated metrics repeat exactly for a seed, so they compare as
  counts: any difference is real.  Better is ``improved``; worse by more
  than the metric's ``same_seed_bound`` is ``regressed``; worse within it
  ``unchanged``.  Both files must hold rounds of one seed.
* Host metrics are noisy.  ``improved`` needs at least ten pairs, B
  winning at least nine tenths of them (ties count for neither) and the
  medians apart by more than A's own interquartile range.  ``regressed``
  is B's median worse than A's by more than the bound.  When A's spread
  is wider than the bound the metric is ``unresolved`` rather than
  ``unchanged`` - unless every B run beats every A run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

from .metrics import END_TO_END, HOST_METRICS, Metric

MIN_PAIRS = 10
WIN_SHARE = 0.9


class Summary(NamedTuple):
    n: int
    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(values: Sequence[float]) -> Summary:
    """n / median / quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return Summary(len(values), only, only, only)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(len(values), median, q1, q3)


class Verdict(NamedTuple):
    verdict: str
    #: B's median over A's median (the base is ``base``).
    ratio: float
    base: float
    pairs: int
    wins: int


def _gain(a: float, b: float, better: str) -> float:
    """How much better ``b`` is than ``a``, positive = better."""
    return b - a if better == "higher" else a - b


def judge(a: Sequence[float], b: Sequence[float], metric: Metric) -> Verdict:
    """Verdict for one metric on one workload; A is the parent."""
    pairs = min(len(a), len(b))
    if pairs == 0:
        return Verdict("unresolved", 0.0, 0.0, 0, 0)
    a, b = list(a[:pairs]), list(b[:pairs])
    sa, sb = summarize(a), summarize(b)
    ratio = sb.median / sa.median if sa.median else 0.0
    gains = [_gain(x, y, metric.better) for x, y in zip(a, b)]
    wins = sum(g > 0 for g in gains)
    gain = _gain(sa.median, sb.median, metric.better)
    worse_by = -gain / abs(sa.median) if sa.median else 0.0
    if metric.name not in HOST_METRICS:
        if all(g == 0 for g in gains):
            verdict = "unchanged"
        elif worse_by > metric.same_seed_bound:
            verdict = "regressed"
        elif all(g >= 0 for g in gains):
            verdict = "improved"
        else:
            verdict = "unchanged"
        return Verdict(verdict, ratio, sa.median, pairs, wins)
    if pairs < MIN_PAIRS:
        verdict = "unresolved"
    elif wins >= WIN_SHARE * pairs and gain > sa.iqr:
        verdict = "improved"
    elif worse_by > metric.bound:
        verdict = "regressed"
    elif sa.iqr > metric.bound * abs(sa.median) and not all(
        _gain(x, y, metric.better) > 0 for x in a for y in b
    ):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Verdict(verdict, ratio, sa.median, pairs, wins)


def values_of(result: dict, workload: str, metric: str) -> List[float]:
    """One value per round of a result file, skipping absent rounds."""
    values = []
    for round_ in result["rounds"]:
        entry = round_["workloads"].get(workload, {})
        if metric in entry.get("metrics", {}):
            values.append(entry["metrics"][metric])
    return values


def compare_results(a: dict, b: dict) -> Dict[str, Dict[str, Verdict]]:
    """``{workload: {metric: Verdict}}`` for every end-to-end metric."""
    table: Dict[str, Dict[str, Verdict]] = {}
    workloads = [w for w in a["rounds"][0]["workloads"]
                 if w in b["rounds"][0]["workloads"]]
    for workload in workloads:
        table[workload] = {
            metric.name: judge(values_of(a, workload, metric.name),
                               values_of(b, workload, metric.name), metric)
            for metric in END_TO_END
        }
    return table


def render(table: Dict[str, Dict[str, Verdict]]) -> str:
    lines = []
    for workload, row in table.items():
        lines.append(workload)
        for name, v in row.items():
            lines.append(
                f"  {name:24s} {v.verdict:10s} B/A = {v.ratio:.4f} "
                f"(A median {v.base:.6g}; {v.wins}/{v.pairs} pairs won)"
            )
    return "\n".join(lines)


def agreement_failures(a: dict, b: dict) -> List[str]:
    """Where two sets of runs of the *same* code disagree.

    Simulated metrics must be equal; host medians must be within the
    metric's bound of each other.
    """
    failures = []
    for workload in a["rounds"][0]["workloads"]:
        for metric in END_TO_END:
            va = values_of(a, workload, metric.name)
            vb = values_of(b, workload, metric.name)
            if not va or not vb:
                failures.append(f"{workload} {metric.name}: missing")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if metric.name not in HOST_METRICS:
                if ma != mb:
                    failures.append(
                        f"{workload} {metric.name}: {ma!r} != {mb!r} "
                        "(simulated metrics must repeat exactly)")
            elif abs(mb - ma) > metric.bound * abs(ma):
                failures.append(
                    f"{workload} {metric.name}: medians {ma:.6g} and "
                    f"{mb:.6g} differ by more than {metric.bound:.0%}")
    return failures
