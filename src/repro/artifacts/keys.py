"""Cache-key derivation: canonical serialisation and stage digests.

A cache key must change exactly when a stage's output could change.  The
ingredients are therefore (1) the *stage name*, (2) a *canonical* form of
every input that reaches the stage — scenario/config dicts, master seeds,
scales, windows — and (3) a *code-version tag* that is bumped whenever the
simulator's or analysis code's output-affecting behaviour changes.

Canonicalisation is strict by design: only values whose equality implies
output equality are accepted (plain scalars, sequences, mappings, enums,
dataclasses, and objects exposing ``cache_fingerprint()``).  Anything else
raises :class:`CanonicalizationError` — an unhashable input must never be
silently folded into a key, because two different worlds would then share
one artifact.

Worlds are never keyed directly: a stage over a simulated week is keyed
by the build inputs ``(spec, scale, seed, duration_s, policy_kind)`` that
:func:`~repro.sim.scenarios.build_world` is a pure function of (see
:func:`repro.sim.driver.simulate_week`), so a world mutated after its
build cannot reach the cache.  Scenario deltas never key a stage
either: what-if rows, grid points and monitor epochs are keyed by the
scenario a delta produces, so equal worlds share one key however their
deltas were written.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

#: Bump whenever a change to simulator or analysis code alters any stage's
#: output for unchanged inputs; every existing artifact then misses.
CODE_VERSION = "5"


class CanonicalizationError(TypeError):
    """A value cannot be canonicalised into a cache key."""


def canonicalize(value: Any) -> Any:
    """Reduce a value to a JSON-serialisable canonical form.

    The form is stable across processes and Python versions: mappings are
    rendered as key-sorted pair lists, sets are sorted, dataclasses carry
    their type name, floats keep their shortest round-trip repr (via
    ``json``), and enums serialise by class and member name.

    Args:
        value: The value to canonicalise.

    Returns:
        A composition of dicts, lists, strings, numbers, bools and None.

    Raises:
        CanonicalizationError: For values with no canonical form.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "member": value.name}
    # An explicit fingerprint beats the structural dataclass form: a type
    # defines one exactly when its identity differs from its fields (e.g.
    # order-sensitive parts, derived internal state).
    fingerprint = getattr(value, "cache_fingerprint", None)
    if callable(fingerprint):
        return {"__fingerprint__": type(value).__name__,
                "value": canonicalize(fingerprint())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        pairs = [[canonicalize(k), canonicalize(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: _dumps(pair[0]))
        return {"__map__": pairs}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        items.sort(key=_dumps)
        return {"__set__": items}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    raise CanonicalizationError(
        f"cannot canonicalise {type(value).__name__!r} into a cache key; "
        "give it a cache_fingerprint() method or pass primitive inputs"
    )


def _dumps(canonical: Any) -> str:
    """Deterministic JSON text of an already-canonical value."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def stage_key(stage: str, config: Any) -> str:
    """The sha256 cache key of one stage invocation.

    Args:
        stage: Stage name (``"sim/run_week"``).
        config: Everything the stage's output depends on.  Canonicalised
            here — pass raw values (dataclasses, dicts, seeds), never
            pre-canonicalised forms, or keys will not line up.

    Returns:
        A 64-character hex digest.

    Raises:
        CanonicalizationError: If the config cannot be canonicalised.
    """
    document = {
        "stage": stage,
        "code_version": CODE_VERSION,
        "config": canonicalize(config),
    }
    # An *active* fault plan changes what stages produce, so it must
    # change their keys: faulted artifacts live in their own (seed, plan)
    # namespace and can never shadow — or be shadowed by — clean ones.
    # Inert plans (all rates zero) leave keys untouched, which is what
    # makes a zero-fault run byte-identical to a plain run.
    from repro.faults.plan import active_plan

    plan = active_plan()
    if plan is not None:
        document["faults"] = canonicalize(plan)
    return hashlib.sha256(_dumps(document).encode("utf-8")).hexdigest()
