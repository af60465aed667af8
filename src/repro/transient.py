"""Per-object lookup state that is built on first use and never pickled.

Some world objects keep lookup tables derived from their own fields:
bisect lists, hash suffixes, distance orders, request-serving tables.
The simulator builds them lazily, and a pickled world never carries
them: it keeps the shape it had before the tables existed, and rebuilds
them on demand after loading.  (Cached weeks hold no world at all, only
:class:`~repro.sim.week.MeasuredWorld`.)
"""

from __future__ import annotations

from typing import Dict, Tuple


class Transient:
    """Mixin: the attributes named in ``_transient`` never reach a pickle.

    Each one needs a class-level ``None`` default, which is what an
    object reads until the attribute is first built.
    """

    _transient: Tuple[str, ...] = ()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for name in self._transient:
            state.pop(name, None)
        return state
