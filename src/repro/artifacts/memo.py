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
— a progress callback, say — are excluded with ``ignore=``.

The wrapper exposes ``cache_key(*args, **kwargs)`` (the key a call would
hit, no work done) and ``map(arg_tuples, labels=None)``, the one cached
fan-out: every distinct key is looked up once in the calling process,
only the misses fan out (:func:`repro.exec.executor.fan_out`), and each
miss is computed and stored once, by the task that computed it::

    @memoized_stage("example/stage", ignore=("progress",))
    def run_stage(scale=0.02, seed=7, progress=None): ...

    key = run_stage.cache_key(scale=0.05)   # no work done
    values, hits = run_stage.map([(0.01,), (0.05,)])
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.artifacts.keys import CanonicalizationError, stage_key
from repro.artifacts.store import default_store
from repro.exec.executor import fan_out

_MISS = object()


def _fill(task: Tuple) -> Any:
    """Process-safe unit of work: compute one missed stage call, store it.

    The stage travels by reference (a module-level decorated function),
    so a pool worker runs the same function and writes to the same store
    directory the parent looked in.
    """
    stage_fn, key, args = task
    with obs.span(f"stage/{stage_fn.stage}", cached=False):
        value = stage_fn.__wrapped__(*args)
        store = default_store()
        if key is not None and store is not None:
            store.put(key, value, stage=stage_fn.stage)
    return value


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
        ``map()``, ``stage`` and ``__wrapped__``.
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

        def map_tasks(
            arg_tuples: Sequence[Sequence],
            labels: Optional[Sequence[str]] = None,
        ) -> Tuple[List[Any], List[bool]]:
            """Run the stage over many calls: hits read, misses fanned out.

            Each distinct key is looked up once, here, under a
            ``stage/<name>`` span carrying ``cached``; only the misses
            fan out (:func:`~repro.exec.executor.fan_out`), and each is
            computed and stored once by its task.  Calls that share a key
            share its value (and its hit flag), so equal calls in one
            batch compute once.  A call whose arguments cannot be
            canonicalised is computed and never stored; with the cache
            disabled every call is computed.

            Args:
                arg_tuples: Positional arguments, one tuple per call.
                labels: Executor labels, parallel to ``arg_tuples``.

            Returns:
                ``(values, hits)``: the values in input order, and
                whether each was served from the store.
            """
            tasks = [tuple(args) for args in arg_tuples]
            store = default_store()
            values: List[Any] = [None] * len(tasks)
            hits = [False] * len(tasks)
            keys: List[Optional[str]] = [None] * len(tasks)
            # Slot of the first call with each key; later calls copy it.
            first: Dict[str, int] = {}
            for i, args in enumerate(tasks):
                if store is None:
                    break
                try:
                    keys[i] = cache_key(*args)
                except CanonicalizationError:
                    continue
                if keys[i] in first:
                    continue
                first[keys[i]] = i
                with obs.span(f"stage/{stage}") as active:
                    value = store.get(keys[i], _MISS, stage=stage)
                    hits[i] = value is not _MISS
                    if active is not None:
                        active.attrs["cached"] = hits[i]
                if hits[i]:
                    values[i] = value
            owner = [i if key is None else first[key] for i, key in enumerate(keys)]
            pending = [i for i, hit in enumerate(hits) if not hit and owner[i] == i]
            if pending:
                fresh = fan_out(
                    _fill,
                    [(wrapper, keys[i], tasks[i]) for i in pending],
                    labels=None if labels is None else [labels[i] for i in pending],
                )
                for i, value in zip(pending, fresh):
                    values[i] = value
            for i, j in enumerate(owner):
                values[i], hits[i] = values[j], hits[j]
            return values, hits

        wrapper.cache_key = cache_key
        wrapper.map = map_tasks
        wrapper.stage = stage
        return wrapper

    return decorate
