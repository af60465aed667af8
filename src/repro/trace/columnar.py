"""Columnar flow tables: the numpy kernel layer behind the analysis hot path.

The analysis modules (:mod:`repro.core.sessions`, :mod:`repro.core.flows`,
:mod:`repro.core.preferred`, :mod:`repro.core.hotspots`,
:mod:`repro.core.nonpreferred`, :mod:`repro.core.folds`) run the paper's
Section VI methodology as vectorised kernels over the column arrays kept
here:

* :class:`FlowTable` — a week's flows as numpy column arrays (``src_ip``,
  ``dst_ip``, ``num_bytes``, ``t_start``, ``t_end``, integer-coded
  ``video_id`` / ``resolution``, and the derived ``hour``), collected as
  columns by the edge monitor or built from an ad-hoc record list, with
  the record view built only when a record-level consumer asks;
* :class:`SessionIndex` — the gap-*independent* part of session building
  (one lexsort over (client, video, start, end) plus the group-wise
  running-max horizon), shared by every gap value of the Figure 5 sweep;
* :func:`seal_rows` and :func:`split_windows` — the one windowing rule:
  rows that start before an instant are sealed into a stable
  ``(t_start, t_end)``-sorted table and cut into tumbling windows, for
  the edge monitor's flow tuples and a replayed flow log's records alike;
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

import math
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.trace.records import FlowRecord


class _Columns:
    """The column arrays of a :class:`FlowTable`.

    ``video_ids``/``resolutions`` are the sorted distinct strings and
    ``video_code``/``resolution_code`` index them per flow; ``hour`` is
    derived from ``t_start``.
    """

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

    #: The stored columns: everything but the derived ``hour``.
    _STORED = __slots__[:5] + __slots__[6:]

    def __init__(self, src_ip, dst_ip, num_bytes, t_start, t_end,
                 video_ids, video_code, resolutions, resolution_code):
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.num_bytes = num_bytes
        self.t_start = t_start
        self.t_end = t_end
        # int(t // 3600.0): the float is already floored, so astype's
        # truncation equals FlowRecord.hour exactly.
        self.hour = (t_start // 3600.0).astype(np.int64)
        self.video_ids = video_ids
        self.video_code = video_code
        self.resolutions = resolutions
        self.resolution_code = resolution_code


#: Getters of a :class:`FlowRecord`'s fields, in order.
RECORD_FIELDS = tuple(
    attrgetter(name)
    for name in ("src_ip", "dst_ip", "num_bytes", "t_start", "t_end", "video_id", "resolution")
)

#: Column types of the five numeric fields.
_DTYPES = (np.int64, np.int64, np.int64, np.float64, np.float64)


def _columns(rows: Sequence, fields: Sequence[Callable]) -> _Columns:
    """The columns of ``rows``, in row order.

    ``fields`` gets each of a :class:`FlowRecord`'s fields, in order, out
    of a row; no per-row object is built on the way.
    """
    n = len(rows)
    numeric = [
        np.fromiter(map(field, rows), dtype, count=n) for field, dtype in zip(fields, _DTYPES)
    ]
    return _Columns(
        *numeric,
        *_code_strings(list(map(fields[5], rows))),
        *_code_strings(list(map(fields[6], rows))),
    )


def _code_strings(values: List[str]):
    """``(sorted distinct strings, int64 code per value)``.

    Code order is Python's string order, which is also the order of
    ``np.unique`` over the same strings.
    """
    if not values:
        return np.empty(0, dtype="U1"), np.empty(0, dtype=np.int64)
    distinct = sorted(set(values))
    code_of = {value: code for code, value in enumerate(distinct)}
    codes = np.fromiter(map(code_of.__getitem__, values), np.int64, count=len(values))
    return np.asarray(distinct), codes


def _recode(strings, codes):
    """:func:`_code_strings` of ``strings[codes]``, without the strings."""
    used, code = np.unique(codes, return_inverse=True)
    return strings[used], code.astype(np.int64, copy=False)


def _merge_codes(strings, codes, more_strings, more_codes):
    """:func:`_code_strings` of two coded string columns, one after the other."""
    merged, code = np.unique(np.concatenate((strings, more_strings)), return_inverse=True)
    code = code.astype(np.int64, copy=False)
    return merged, np.concatenate((code[: len(strings)][codes], code[len(strings):][more_codes]))


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
    """A columnar flow table: numpy columns, with a record view on demand.

    A table is built either from a record list (``FlowTable(records)``,
    for ad-hoc lists; its columns materialise the first time a kernel
    asks) or straight into columns (:meth:`from_rows`, which the edge
    monitor runs on the flow tuples it keeps, and :meth:`select`; its
    records are built on first use of :attr:`records`).  Either way it
    is a ``Sequence[FlowRecord]``, so record-level consumers can iterate
    it.  Build one per dataset / filtered flow set and pass it to the
    analysis functions, so every analysis shares its cached columns.  A
    table pickles as its columns only.
    """

    __slots__ = (
        "_records",
        "_cols",
        "_session_index",
        "_dst_unique",
        "_dst_code",
    )

    def __init__(self, records: Union[Sequence[FlowRecord], Iterable[FlowRecord]]):
        self._records: Optional[List[FlowRecord]] = (
            records if isinstance(records, list) else list(records)
        )
        self._cols: Optional[_Columns] = None
        self._session_index: Optional[SessionIndex] = None
        self._dst_unique = None
        self._dst_code = None

    @classmethod
    def _of_columns(cls, cols: _Columns) -> "FlowTable":
        table = cls.__new__(cls)
        table._records = None
        table._cols = cols
        table._session_index = None
        table._dst_unique = None
        table._dst_code = None
        return table

    @classmethod
    def from_rows(cls, rows: Sequence, fields: Sequence[Callable]) -> "FlowTable":
        """A table of arbitrary flow rows, in row order.

        Args:
            rows: One object per flow (a tuple, say).
            fields: Getters of a :class:`FlowRecord`'s seven fields, in
                order, out of a row.

        Raises:
            ValueError: :class:`FlowRecord`'s value checks, applied to
                every row at once: a flow ends before it starts, or has a
                negative byte count.
        """
        cols = _columns(rows, fields)
        if (cols.t_end < cols.t_start).any():
            raise ValueError("flow ends before it starts")
        if (cols.num_bytes < 0).any():
            raise ValueError("negative byte count")
        return cls._of_columns(cols)

    def select(self, rows) -> "FlowTable":
        """The table of the selected rows (a boolean mask or index array).

        The string codes are re-derived over the rows kept, so the result
        equals, column for column, ``FlowTable`` over the selected
        records, and is built without them.
        """
        cols = self.columns()
        return FlowTable._of_columns(_Columns(
            cols.src_ip[rows], cols.dst_ip[rows], cols.num_bytes[rows],
            cols.t_start[rows], cols.t_end[rows],
            *_recode(cols.video_ids, cols.video_code[rows]),
            *_recode(cols.resolutions, cols.resolution_code[rows]),
        ))

    def __reduce__(self):
        cols = self.columns()
        return _table_of_stored, tuple(getattr(cols, name) for name in _Columns._STORED)

    # ------------------------------------------------ sequence protocol

    @property
    def records(self) -> List[FlowRecord]:
        """One :class:`FlowRecord` per row (built on first use, then cached)."""
        if self._records is None:
            cols = self._cols
            video_ids = cols.video_ids.tolist()
            resolutions = cols.resolutions.tolist()
            self._records = list(map(
                FlowRecord,
                cols.src_ip.tolist(),
                cols.dst_ip.tolist(),
                cols.num_bytes.tolist(),
                cols.t_start.tolist(),
                cols.t_end.tolist(),
                [video_ids[code] for code in cols.video_code.tolist()],
                [resolutions[code] for code in cols.resolution_code.tolist()],
            ))
        return self._records

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self._cols.t_start)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # ------------------------------------------------------- columns

    def columns(self) -> _Columns:
        """The column arrays (built from the records on first use)."""
        if self._cols is None:
            self._cols = _columns(self._records, RECORD_FIELDS)
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


def _table_of_stored(*stored) -> FlowTable:
    """Unpickle a :class:`FlowTable` from its stored columns."""
    return FlowTable._of_columns(_Columns(*stored))


def concat_tables(first: FlowTable, second: FlowTable) -> FlowTable:
    """The rows of ``first`` followed by those of ``second``, as one table."""
    a, b = first.columns(), second.columns()
    return FlowTable._of_columns(_Columns(
        *(np.concatenate((getattr(a, name), getattr(b, name))) for name in _Columns._STORED[:5]),
        *_merge_codes(a.video_ids, a.video_code, b.video_ids, b.video_code),
        *_merge_codes(a.resolutions, a.resolution_code, b.resolutions, b.resolution_code),
    ))


def as_table(records: Union[Sequence[FlowRecord], FlowTable]) -> FlowTable:
    """The :class:`FlowTable` to run the kernels over.

    An existing table passes through (reusing its cached columns); a plain
    record sequence gets a throwaway table.
    """
    if isinstance(records, FlowTable):
        return records
    return FlowTable(records)


# ------------------------------------------------------------- windowing


def seal_rows(rows: List, before_s: float, fields: Sequence[Callable]) -> FlowTable:
    """Take the rows that start before ``before_s`` out of ``rows``, as a table.

    The one seal of both producers of windows: the edge monitor seals the
    flow tuples it keeps (:meth:`repro.trace.monitor.EdgeMonitor.seal`),
    a flow-log replay the records it has read
    (:func:`repro.trace.logio.sealed_log_windows`).  The sealed rows are
    in stable ``(t_start, t_end)`` order: rows that tie keep their order
    in ``rows``.  The rest stay in ``rows``, in order, so sealing at
    increasing instants cuts the one stable order into consecutive pieces.

    Args:
        rows: The unsealed rows, in arrival order; the sealed ones are
            taken out of it and released once their columns are built.
        before_s: Seal the rows that start before this instant
            (``math.inf`` takes them all without a pass over them).
        fields: Getters of a :class:`FlowRecord`'s seven fields out of a
            row (see :meth:`FlowTable.from_rows`).

    Raises:
        ValueError: As :meth:`FlowTable.from_rows` does.
    """
    if before_s == math.inf:
        sealed = rows.copy()
        rows.clear()
    else:
        t_start = fields[3]
        sealed = [row for row in rows if t_start(row) < before_s]
        rows[:] = [row for row in rows if t_start(row) >= before_s]
    table = FlowTable.from_rows(sealed, fields)
    del sealed  # the columns hold them now
    cols = table.columns()
    # lexsort is stable: rows that tie keep their order in ``rows``.
    return table.select(np.lexsort((cols.t_end, cols.t_start)))


def split_windows(table: FlowTable, window_s: float) -> Iterator[FlowTable]:
    """A sealed table's nonempty tumbling windows ``[k·W, (k+1)·W)``.

    ``table`` is sorted by ``t_start`` (as :func:`seal_rows` leaves it),
    so the windows come out in index order and concatenate to it.
    """
    if not len(table):
        return
    index = table.columns().t_start // window_s
    bounds = [0, *(np.flatnonzero(np.diff(index)) + 1).tolist(), len(table)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield table.select(slice(lo, hi))


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
