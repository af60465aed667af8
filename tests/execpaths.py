"""Force either path of :func:`repro.exec.executor.fan_out`.

Each round of a batch picks its own path from the host
(:func:`repro.exec.executor._pool_size`).  Tests that must hold both
paths on any host, one CPU included, patch that decision through
:func:`forced`.
"""

from __future__ import annotations

from unittest import mock

from repro.exec import executor

#: The two paths a round can take: its tasks run one after another in
#: this process, or fan out over a forked pool of worker processes.
PATHS = ("in-process", "pooled")

#: Test ids for :data:`PATHS` in the unit tests' parametrisations: a
#: serial round, and one over worker processes.
PATH_IDS = ("serial", "process")


def _pooled(tasks: int) -> int:
    # Two workers for every round, but none inside a worker: pools never nest.
    return 0 if executor._IN_WORKER else 2


def forced(path: str):
    """A patch that makes every round of every batch take ``path``."""
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; expected one of {PATHS}")
    size = _pooled if path == "pooled" else (lambda tasks: 0)
    return mock.patch.object(executor, "_pool_size", size)
