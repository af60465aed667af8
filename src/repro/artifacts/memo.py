"""Stage-level memoization: the ``@memoized_stage`` decorator.

Wrapping a *deterministic* stage function memoizes it through the default
:class:`~repro.artifacts.store.ArtifactStore`: the call's bound arguments
are canonicalised into a :func:`~repro.artifacts.keys.stage_key` and the
return value is pickled under it.  A later call with equal inputs — in
this process, another process, or next week — loads the artifact instead
of recomputing.

The contract mirrors the executor's determinism contract: the wrapped
function's output must depend only on its (canonicalisable) arguments.
Arguments that merely steer *how* the work is done, not *what* it produces
— an ``executor``, a progress callback — are excluded with ``ignore=``.

The wrapper exposes ``cache_key(*args, **kwargs)`` so orchestration layers
can pre-check the store and fan out only the missing work::

    @memoized_stage("example/stage", ignore=("executor",))
    def run_stage(scale=0.02, seed=7, executor=None): ...

    key = run_stage.cache_key(scale=0.05)   # no work done
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Sequence

from repro import obs
from repro.artifacts.keys import stage_key
from repro.artifacts.store import default_store

_MISS = object()


def memoized_stage(
    stage: str,
    ignore: Sequence[str] = (),
) -> Callable[[Callable], Callable]:
    """Decorator: disk-memoize a deterministic stage function.

    Args:
        stage: Stage name, namespaced like ``"sim/run_week"`` — part of
            the cache key, so renaming it invalidates existing artifacts.
        ignore: Parameter names excluded from the key (mechanical knobs
            that cannot change the output).

    Returns:
        The decorating function.  The wrapper bypasses the cache entirely
        when the default store is disabled, and exposes ``cache_key()``,
        ``stage`` and ``__wrapped__``.
    """
    ignored = frozenset(ignore)

    def decorate(fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        unknown = ignored - set(signature.parameters)
        if unknown:
            raise ValueError(
                f"memoized_stage({stage!r}): ignored parameters "
                f"{sorted(unknown)} not in {fn.__name__}'s signature"
            )

        def cache_key(*args, **kwargs) -> str:
            """The stage key this call would hit (no work performed)."""
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            config = {
                name: value
                for name, value in bound.arguments.items()
                if name not in ignored
            }
            return stage_key(stage, config)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The span shows whether this stage call was served from
            # cache (``cached`` attribute) and how long it took either
            # way; a ``None`` active span means tracing is off.
            with obs.span(f"stage/{stage}") as active:
                store = default_store()
                if store is None:
                    return fn(*args, **kwargs)
                key = cache_key(*args, **kwargs)
                value = store.get(key, _MISS, stage=stage)
                if active is not None:
                    active.attrs["cached"] = value is not _MISS
                if value is not _MISS:
                    return value
                value = fn(*args, **kwargs)
                store.put(key, value, stage=stage)
                return value

        wrapper.cache_key = cache_key
        wrapper.stage = stage
        return wrapper

    return decorate
