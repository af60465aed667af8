"""Reporting utilities: CDFs, time series, and plain-text tables.

Everything the benchmarks print goes through this package, so the
regenerated tables and figure series share one look.
"""

from repro.reporting.series import Cdf, Series, hourly_counts
from repro.reporting.tables import TextTable, format_bytes, format_fraction
from repro.reporting.timing import render_timing_table, timing_summary, write_timing_json

__all__ = [
    "Cdf",
    "Series",
    "hourly_counts",
    "TextTable",
    "format_bytes",
    "format_fraction",
    "render_timing_table",
    "timing_summary",
    "write_timing_json",
]
