"""Record-at-a-time executable spec of the Section VI analysis.

Every module here restates one runtime kernel as a plain loop over
:class:`~repro.trace.records.FlowRecord` objects — the methodology as
the paper words it, with no columns, sorting tricks or grouped
reductions.  The modules mirror the runtime layout (``oracle.preferred``
specifies :mod:`repro.core.preferred`, ``oracle.accumulators`` specifies
:mod:`repro.core.folds`, ``oracle.attribution`` specifies
:mod:`repro.eval.attribution`, and so on).

Nothing under ``src/`` imports this package: it exists so the parity
tests (``tests/test_columnar_kernels.py``, ``tests/test_session_kernels.py``
and the hypothesis properties in ``tests/test_properties.py``) can
require the columnar kernels to reproduce it *exactly* — same session
lists, same dict order, same floats — and so
``benchmarks/test_bench_analysis.py`` can time the kernels against it.
The runtime holds flows as :class:`~repro.trace.columnar.FlowTable`
columns only; :func:`records_of` and :func:`table_of` are the one
test-side bridge between the two forms.

``oracle.cbg`` does the same for CBG and its probes
(:mod:`repro.geoloc.cbg`, :mod:`repro.net.latency`): pair-by-pair
calibration, point-by-point region sampling and per-probe floors, which
``tests/test_geoloc_cbg_oracle.py`` requires the runtime to match bit for
bit and ``benchmarks/test_bench_cbg.py`` times.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.trace.columnar import RECORD_FIELDS, FlowTable
from repro.trace.records import FlowRecord


def table_of(records: Iterable[FlowRecord]) -> FlowTable:
    """The table of a record list, row for row."""
    return FlowTable.from_rows(list(records), RECORD_FIELDS)


def records_of(table: FlowTable) -> List[FlowRecord]:
    """One record per row of a table, in row order."""
    cols = table.columns()
    video_ids = cols.video_ids.tolist()
    resolutions = cols.resolutions.tolist()
    return list(map(
        FlowRecord,
        cols.src_ip.tolist(),
        cols.dst_ip.tolist(),
        cols.num_bytes.tolist(),
        cols.t_start.tolist(),
        cols.t_end.tolist(),
        [video_ids[code] for code in cols.video_code.tolist()],
        [resolutions[code] for code in cols.resolution_code.tolist()],
    ))
