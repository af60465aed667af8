"""Columnar flow tables: the numpy kernel layer behind the analysis hot path.

The analysis modules (:mod:`repro.core.sessions`, :mod:`repro.core.flows`,
:mod:`repro.core.preferred`, :mod:`repro.core.hotspots`,
:mod:`repro.core.nonpreferred`, :mod:`repro.core.folds`) run the paper's
Section VI methodology as vectorised kernels over the column arrays kept
here:

* :class:`FlowTable` — a lazy, cached materialization of a record sequence
  into numpy column arrays (``src_ip``, ``dst_ip``, ``num_bytes``,
  ``t_start``, ``t_end``, integer-coded ``video_id`` / ``resolution``, and
  the derived ``hour``);
* :class:`SessionIndex` — the gap-*independent* part of session building
  (one lexsort over (client, video, start, end) plus the group-wise
  running-max horizon), shared by every gap value of the Figure 5 sweep;
* :func:`group_sum_int64`, the exact grouped sum used by the per-hour /
  per-DC / per-video kernels.

The record-at-a-time executable spec of the same methodology lives in
``tests/oracle/``; the parity tests require every kernel to reproduce it
exactly — same session lists, same figure series, byte-identical digests.

Exactness notes, because parity is a hard requirement:

* Session horizons are computed by cumulative-max over *ranks* of ``t_end``
  (integers), not over offset-shifted floats, so the horizon handed to the
  ``t_start - horizon < gap`` comparison is the exact same double the
  spec's record loop sees.
* Byte totals are aggregated with int64 ``np.add.reduceat``, never float
  weights, so sums are exact at any scale.
* Kernel outputs are converted back to built-in ``int``/``float``/``str``
  at the boundary (``repr()`` of ``np.float64`` differs from ``float`` on
  numpy >= 2, which would corrupt digests).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.trace.records import FlowRecord


class _Columns:
    """The materialised column arrays of a :class:`FlowTable`."""

    __slots__ = (
        "src_ip",
        "dst_ip",
        "num_bytes",
        "t_start",
        "t_end",
        "hour",
        "video_ids",
        "video_code",
        "resolutions",
        "resolution_code",
    )

    def __init__(self, records: Sequence[FlowRecord]):
        n = len(records)
        self.src_ip = np.fromiter((r.src_ip for r in records), np.int64, count=n)
        self.dst_ip = np.fromiter((r.dst_ip for r in records), np.int64, count=n)
        self.num_bytes = np.fromiter((r.num_bytes for r in records), np.int64, count=n)
        self.t_start = np.fromiter((r.t_start for r in records), np.float64, count=n)
        self.t_end = np.fromiter((r.t_end for r in records), np.float64, count=n)
        # int(t // 3600.0): the float is already floored, so astype's
        # truncation equals FlowRecord.hour exactly.
        self.hour = (self.t_start // 3600.0).astype(np.int64)
        if n:
            # np.unique sorts lexicographically, matching Python's string
            # order, so code order == sorted(video_id) order.
            self.video_ids, self.video_code = np.unique(
                np.asarray([r.video_id for r in records]), return_inverse=True
            )
            self.resolutions, self.resolution_code = np.unique(
                np.asarray([r.resolution for r in records]), return_inverse=True
            )
        else:
            self.video_ids = np.empty(0, dtype="U1")
            self.video_code = np.empty(0, dtype=np.int64)
            self.resolutions = np.empty(0, dtype="U1")
            self.resolution_code = np.empty(0, dtype=np.int64)
        self.video_code = self.video_code.astype(np.int64, copy=False)
        self.resolution_code = self.resolution_code.astype(np.int64, copy=False)


class SessionIndex:
    """The gap-independent skeleton of session building.

    Section VI-A groups flows by (client, video) and breaks a group into
    sessions wherever ``t_start - horizon >= T``, with ``horizon`` the
    group-wide running max of ``t_end``.  Everything except the final
    comparison is independent of T, so one index serves the whole Figure 5
    sweep ``T in {1, 5, 10, 60, 300}``.

    Attributes:
        order: Indices sorting the table by (client, video, t_start, t_end),
            stable — the exact order the record spec visits flows in.
        new_group: Boolean per sorted row: first row of a (client, video)
            group.
        t_start: ``t_start`` in sorted order.
        t_end: ``t_end`` in sorted order.
        horizon_prev: Per sorted row, the running max of ``t_end`` over the
            *earlier* rows of the same group (undefined on group heads,
            which always start a session).
    """

    __slots__ = ("order", "new_group", "t_start", "t_end", "horizon_prev")

    def __init__(self, cols: _Columns):
        n = len(cols.t_start)
        if n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.new_group = np.empty(0, dtype=bool)
            self.t_start = np.empty(0, dtype=np.float64)
            self.t_end = np.empty(0, dtype=np.float64)
            self.horizon_prev = np.empty(0, dtype=np.float64)
            return
        order = np.lexsort((cols.t_end, cols.t_start, cols.video_code, cols.src_ip))
        src = cols.src_ip[order]
        vid = cols.video_code[order]
        ts = cols.t_start[order]
        te = cols.t_end[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = (src[1:] != src[:-1]) | (vid[1:] != vid[:-1])
        # Exact group-wise running max of t_end: rank the values (ints),
        # cumulative-max the ranks with a per-group int64 offset, then map
        # back.  No float arithmetic touches the horizon, so it is
        # bit-identical to the spec's max() chain.
        grp = np.cumsum(new_group) - 1
        uniq_te, te_rank = np.unique(te, return_inverse=True)
        base = grp.astype(np.int64) * np.int64(len(uniq_te))
        cummax_rank = np.maximum.accumulate(te_rank.astype(np.int64) + base) - base
        horizon_prev = np.empty(n, dtype=np.float64)
        horizon_prev[0] = -np.inf
        horizon_prev[1:] = uniq_te[cummax_rank[:-1]]
        self.order = order
        self.new_group = new_group
        self.t_start = ts
        self.t_end = te
        self.horizon_prev = horizon_prev

    def session_starts(self, gap_s: float) -> "np.ndarray":
        """Boolean per sorted row: the row opens a new session at gap T."""
        starts = self.new_group.copy()
        cont = ~self.new_group
        starts[cont] = (self.t_start[cont] - self.horizon_prev[cont]) >= gap_s
        return starts

    def session_sizes(self, gap_s: float) -> "np.ndarray":
        """Flows per session at gap T, in session order."""
        starts = self.session_starts(gap_s)
        if not len(starts):
            return np.empty(0, dtype=np.int64)
        return np.bincount(np.cumsum(starts) - 1)


class FlowTable:
    """A columnar view over a flow-record sequence.

    The table keeps the original record list (a ``FlowTable`` is a
    ``Sequence[FlowRecord]``, so kernels can hand back the records they
    select) and materialises the numpy columns lazily, the first time a
    kernel asks.  Build one per dataset / filtered record list and pass it
    to the analysis functions, so every analysis shares its cached columns.
    """

    __slots__ = (
        "records",
        "_cols",
        "_session_index",
        "_dst_unique",
        "_dst_code",
        "__weakref__",
    )

    def __init__(self, records: Union[Sequence[FlowRecord], Iterable[FlowRecord]]):
        self.records: List[FlowRecord] = (
            records if isinstance(records, list) else list(records)
        )
        self._cols: Optional[_Columns] = None
        self._session_index: Optional[SessionIndex] = None
        self._dst_unique = None
        self._dst_code = None
        _TABLES.add(self)

    # ------------------------------------------------ sequence protocol

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # ------------------------------------------------------- columns

    def columns(self) -> _Columns:
        """The materialised column arrays (built on first use)."""
        if self._cols is None:
            self._cols = _Columns(self.records)
        return self._cols

    def session_index(self) -> SessionIndex:
        """The cached gap-independent session skeleton."""
        if self._session_index is None:
            self._session_index = SessionIndex(self.columns())
        return self._session_index

    def dst_codes(self):
        """``(unique_dst_ips, per-flow code)`` — server-identity coding."""
        if self._dst_unique is None:
            self._dst_unique, code = np.unique(
                self.columns().dst_ip, return_inverse=True
            )
            self._dst_code = code.astype(np.int64, copy=False)
        return self._dst_unique, self._dst_code

    # ---------------------------------------------------- memory accounting

    def nbytes(self) -> int:
        """Bytes of columnar memory this table has materialised so far.

        Counts only what actually exists — an un-materialised table
        reports 0 — so ``repro cache stats`` shows resident columnar
        memory, not a hypothetical.  The record objects themselves are
        not counted (they are interpreter objects, not column storage).
        """
        total = 0
        cols = self._cols
        if cols is not None:
            for name in _Columns.__slots__:
                arr = getattr(cols, name, None)
                if arr is not None:
                    total += int(arr.nbytes)
        if self._dst_unique is not None:
            total += int(self._dst_unique.nbytes) + int(self._dst_code.nbytes)
        idx = self._session_index
        if idx is not None:
            for name in SessionIndex.__slots__:
                arr = getattr(idx, name, None)
                if arr is not None:
                    total += int(arr.nbytes)
        return total


#: Every live FlowTable in this process, for resident-memory accounting.
_TABLES: "weakref.WeakSet[FlowTable]" = weakref.WeakSet()


def resident_columnar() -> Dict[str, int]:
    """Resident columnar memory across all live tables in this process.

    Returns:
        ``{"tables": live table count, "resident_bytes": sum of nbytes()}``.
        Backs the ``columnar:`` line of ``repro cache stats``.
    """
    tables = list(_TABLES)
    return {
        "tables": len(tables),
        "resident_bytes": sum(t.nbytes() for t in tables),
    }


def as_table(records: Union[Sequence[FlowRecord], FlowTable]) -> FlowTable:
    """The :class:`FlowTable` to run the kernels over.

    An existing table passes through (reusing its cached columns); a plain
    record sequence gets a throwaway table.
    """
    if isinstance(records, FlowTable):
        return records
    return FlowTable(records)


# ---------------------------------------------------------------- helpers


def group_sum_int64(codes, values, num_groups: int):
    """Exact int64 per-group sums (``bincount`` with integer weights).

    ``np.bincount(..., weights=...)`` accumulates in float64 and loses
    exactness past 2**53; this helper sorts by group and uses
    ``np.add.reduceat`` on int64 so byte totals stay exact at any scale.
    """
    out = np.zeros(num_groups, dtype=np.int64)
    if len(values) == 0:
        return out
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_values = values[order].astype(np.int64, copy=False)
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    )
    out[sorted_codes[boundaries]] = np.add.reduceat(sorted_values, boundaries)
    return out
