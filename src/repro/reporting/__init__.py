"""Reporting utilities: CDFs, time series, and plain-text tables.

Everything the benchmarks print goes through this package, so the
regenerated tables and figure series share one look.
"""
