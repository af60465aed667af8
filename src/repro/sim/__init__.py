"""Simulation driver: scenario specs, world building, and week runs.

The five scenario specs mirror the paper's five datasets (Table I); a
scenario builds a self-contained world (CDN + vantage point + workload) and
the engine pushes a simulated week of requests through it, producing the
flow-level dataset the analysis pipeline consumes.
"""
