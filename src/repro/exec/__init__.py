"""Parallel execution layer: deterministic fan-out over independent work.

See :mod:`repro.exec.executor` for the design notes and the determinism
contract.
"""
