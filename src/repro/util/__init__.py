"""Small shared utilities: statistics, table rendering."""

from repro.util.stats import Summary, confidence_interval, summarize
from repro.util.tables import format_table

__all__ = [
    "Summary",
    "confidence_interval",
    "summarize",
    "format_table",
]
