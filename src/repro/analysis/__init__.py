"""Result analysis: cross-scheme comparison, wear, RAM models, and
per-cause time attribution from event traces."""

from .attribution import (
    ATTRIBUTION_HEADERS,
    attribute_trace,
    attribution_rows,
    format_attribution,
    read_trace,
)
from .compare import (
    COMPARISON_HEADERS,
    comparison_rows,
    optimality_gap,
)
from .ram import ram_model, scalability_table
from .wear import erase_histogram, lifetime_projection, wear_profile

__all__ = [
    "ATTRIBUTION_HEADERS",
    "attribute_trace",
    "attribution_rows",
    "format_attribution",
    "read_trace",
    "COMPARISON_HEADERS",
    "comparison_rows",
    "optimality_gap",
    "ram_model",
    "scalability_table",
    "erase_histogram",
    "lifetime_projection",
    "wear_profile",
]
