"""Seeded, fully deterministic fault plans.

The measurement pipeline the paper describes is inherently lossy: CBG
tolerates lost or late PlanetLab probes, Tstat drops flows at the edge,
DNS answers time out.  A :class:`FaultPlan` injects those failure modes
into the reproduction — probe loss and RTT timeouts into campaigns,
transient exceptions and worker crashes into the executor, corrupt
objects into the artifact store, garbled lines into flow-log ingestion —
in a way that is *exactly* reproducible: every injection decision is a
pure function of ``(plan.seed, site labels)`` via
:func:`repro.sim.seeding.derive_seed`, never of wall clock, call order or
scheduling.  Two runs of the same (seed, plan) inject the same faults at
the same sites, so chaos runs are debuggable and byte-comparable.

Plans are JSON — a file path or an inline object — given by the
``--faults`` CLI flag or the ``REPRO_FAULTS`` environment variable.  The
plan in force lives in this process, and a pool's workers are forked from
it, so they inherit it with no hand-off.  The grammar::

    {
      "seed": 42,                  // fault-decision seed
      "probe_loss": 0.05,          // P(one campaign/CBG measurement lost)
      "probe_timeout": 0.1,        // P(one measurement attempt times out)
      "task_transient": 0.1,       // P(one executor task attempt raises)
      "task_crash": 0.02,          // P(one executor task attempt "dies")
      "artifact_corrupt": 0.5,     // P(a stored object reads back corrupt)
      "line_garble": 0.01,         // P(a flow-log line arrives garbled)
      "max_failures_per_task": 2   // injections stop after this many
                                   // attempts at one site (bounds retries)
    }

All fields are optional; omitted rates default to 0.  A plan whose rates
are all zero is *inert*: it injects nothing and leaves artifact-cache
keys untouched, so its outputs are byte-identical to a run with no plan
at all.  An active plan, by contrast, is folded into every
:func:`~repro.artifacts.keys.stage_key`, which keeps faulted artifacts
out of the clean cache namespace (and vice versa).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Environment variable carrying a plan (a JSON object or a path to one),
#: in force when none is installed with :func:`set_current_plan`.
ENV_FAULTS = "REPRO_FAULTS"

#: The injection-rate fields of :class:`FaultPlan`, in grammar order.
RATE_FIELDS = (
    "probe_loss",
    "probe_timeout",
    "task_transient",
    "task_crash",
    "artifact_corrupt",
    "line_garble",
)

_TWO_63 = float(1 << 63)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic chaos configuration (see the module docstring).

    Attributes:
        seed: Master seed for every injection decision.
        probe_loss: Chance one campaign/CBG measurement is lost outright.
        probe_timeout: Chance one measurement *attempt* times out (a
            retryable fault; exhausted retries lose the measurement).
        task_transient: Chance one executor task attempt raises a
            :class:`~repro.faults.retry.TransientFault`.
        task_crash: Chance one executor task attempt dies as a
            :class:`~repro.faults.retry.WorkerCrash`.
        artifact_corrupt: Chance an artifact-store read surfaces an
            object with one byte flipped (which fails its checksum, so
            the store quarantines it and the stage recomputes).
        line_garble: Chance a flow-log line is garbled mid-ingestion,
            in a batch read and a windowed replay alike.  (A log's own
            disorder is input, not a fault: a replay windows what stays
            within ``--lag-s`` and rejects the rest.)
        max_failures_per_task: Attempt ceiling per injection site; beyond
            it the site succeeds, so bounded retries always converge.
    """

    seed: int = 0
    probe_loss: float = 0.0
    probe_timeout: float = 0.0
    task_transient: float = 0.0
    task_crash: float = 0.0
    artifact_corrupt: float = 0.0
    line_garble: float = 0.0
    max_failures_per_task: int = 2

    def __post_init__(self):
        for name in RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.max_failures_per_task < 0:
            raise ValueError("max_failures_per_task must be >= 0")

    # ------------------------------------------------------------ decisions

    @property
    def active(self) -> bool:
        """Whether the plan injects anything (any non-zero rate)."""
        return any(getattr(self, name) > 0.0 for name in RATE_FIELDS)

    def unit(self, *labels: str) -> float:
        """A deterministic uniform draw in [0, 1) for one labelled site."""
        # Imported lazily: the faults package sits below every other layer
        # (trace, exec, artifacts all import it), so a top-level import of
        # repro.sim here would close an import cycle through repro.trace.
        from repro.sim.seeding import derive_seed

        return derive_seed(self.seed, "faults", *labels) / _TWO_63

    def decide(self, rate: float, *labels: str) -> bool:
        """Whether to inject a fault with ``rate`` at one labelled site.

        The decision depends only on ``(seed, labels)`` — not on call
        order, thread, or process — so any component (or a post-hoc
        debugger) can re-derive exactly which sites were faulted.
        """
        if rate <= 0.0:
            return False
        return self.unit(*labels) < rate

    def attempt_fails(self, rate: float, attempt: int, *labels: str) -> bool:
        """Per-attempt decision, bounded by ``max_failures_per_task``.

        Attempts beyond the ceiling never fail, so a site whose ceiling is
        below :data:`~repro.faults.retry.MAX_ATTEMPTS` (the default is)
        always succeeds within its attempts.
        """
        if attempt > self.max_failures_per_task:
            return False
        return self.decide(rate, *labels, f"attempt={attempt}")

    # ---------------------------------------------------------- (de)serialise

    def to_json(self) -> str:
        """The plan as a compact JSON object (the grammar above)."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON object string.

        Raises:
            ValueError: For malformed JSON, unknown fields, or rates
                outside [0, 1].
        """
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ValueError(f"malformed fault plan JSON: {error}") from error
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault plan fields: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a plan from an inline JSON object or a file path.

        This is the form ``--faults`` and ``REPRO_FAULTS`` accept: a
        string starting with ``{`` is inline JSON, anything else names a
        JSON file.

        Raises:
            ValueError: For empty specs or malformed plans.
            OSError: For unreadable plan files.
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty fault plan spec")
        if spec.startswith("{"):
            return cls.from_json(spec)
        return cls.from_json(Path(spec).read_text(encoding="utf-8"))


# The process-wide plan.  An explicit set_current_plan() (what --faults
# does) wins; otherwise the environment is re-parsed whenever REPRO_FAULTS
# changes, so monkeypatching tests see the right plan without further
# plumbing.  Forked pool workers inherit either.
_UNSET = object()
_override = _UNSET
_env_cache: tuple = ("", None)


def set_current_plan(plan: Optional[FaultPlan]) -> None:
    """Install a plan for this process (``None`` = explicitly no plan)."""
    global _override
    _override = plan


def clear_current_plan() -> None:
    """Drop any explicit plan; fall back to ``REPRO_FAULTS``."""
    global _override
    _override = _UNSET


def current_plan() -> Optional[FaultPlan]:
    """The plan in force: the explicit one, else ``REPRO_FAULTS``, else none.

    Raises:
        ValueError: If ``REPRO_FAULTS`` holds a malformed plan — a typo'd
            chaos run must fail loudly, not silently run clean.
    """
    global _env_cache
    if _override is not _UNSET:
        return _override
    spec = os.environ.get(ENV_FAULTS, "").strip()
    if not spec:
        return None
    if spec != _env_cache[0]:
        _env_cache = (spec, FaultPlan.from_spec(spec))
    return _env_cache[1]


def active_plan() -> Optional[FaultPlan]:
    """The current plan if it actually injects faults, else ``None``.

    Injection sites call this: an inert (all-zero) plan behaves exactly
    like no plan, which is what keeps zero-fault runs byte-identical to
    clean runs — cache keys included.
    """
    plan = current_plan()
    return plan if plan is not None and plan.active else None
