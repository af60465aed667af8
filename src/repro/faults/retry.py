"""Transient faults, and how many attempts one unit of work gets.

Every injected failure is decided by a seeded
:class:`~repro.faults.plan.FaultPlan`, per attempt, never by the clock.
A retry therefore needs no schedule: a failed attempt is simply made
again, at once, up to :data:`MAX_ATTEMPTS` times.  Retries happen only
under an active plan — executor task attempts and campaign RTT
measurements — so a run without one never re-attempts anything.

The exception taxonomy injected by the plan lives here too, so worker
processes can unpickle it without importing the plan machinery.
"""

from __future__ import annotations

from typing import Tuple


class TransientFault(RuntimeError):
    """A failure worth retrying: the next attempt may well succeed."""


class WorkerCrash(TransientFault):
    """An executor worker died mid-task (injected or real)."""


#: Attempts per unit of work under an active plan: one more than
#: ``FaultPlan.max_failures_per_task`` at its default, so a task or a
#: measurement the default plan faults always succeeds in the end.
MAX_ATTEMPTS = 4

#: Exception type *names* worth another attempt.  Names, not classes,
#: because the executor ships failures across process boundaries as
#: :class:`~repro.exec.executor.ExecutionError` records carrying only the
#: original type's name.
RETRY_ON: Tuple[str, ...] = (
    "TransientFault",
    "WorkerCrash",
    "TimeoutError",
    "ConnectionError",
    "OSError",
)
