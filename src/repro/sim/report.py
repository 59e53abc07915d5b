"""Plain-text tables and series for benchmark output.

Every benchmark prints through these helpers so EXPERIMENTS.md and the
bench logs share one format: a fixed-width table of rows (the paper's
tables) or an x/y series per scheme (the paper's figures).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
) -> str:
    """Render a fixed-width ASCII table."""
    materialized: List[Sequence[Cell]] = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in materialized:
        rendered = []
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                text = f"{cell:,.1f}"
            elif isinstance(cell, int):
                text = f"{cell:,}"
            else:
                text = str(cell)
            rendered.append(text)
            widths[i] = max(widths[i], len(text))
        rendered_rows.append(rendered)
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row, raw in zip(rendered_rows, materialized):
        cells = []
        for text, cell, w in zip(row, raw, widths):
            cells.append(
                text.rjust(w) if isinstance(cell, (int, float))
                else text.ljust(w)
            )
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Cell],
    series: Dict[str, Sequence[float]],
    title: str = "",
    y_format: str = "{:,.1f}",
) -> str:
    """Render figure data: one column per x value, one row per scheme.

    This is the textual equivalent of a line chart - the representation
    EXPERIMENTS.md records for each reconstructed figure.
    """
    headers = [x_label] + [str(x) for x in x_values]
    rows = []
    for name in series:
        rows.append([name] + [y_format.format(v) for v in series[name]])
    return format_table(headers, rows, title=title)


def relative_to(
    baseline: float, others: Dict[str, float]
) -> Dict[str, float]:
    """Express metric values as multiples of a baseline (value / baseline).

    E.g. with the ideal FTL's mean response time as baseline, a value of
    1.1 reads "10 % above optimal" - the form the paper's "very close to
    the theoretically optimal solution" claim is checked in.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return {name: value / baseline for name, value in others.items()}
