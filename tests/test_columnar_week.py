"""The columnar week: a dataset is collected, cached and selected as columns.

The edge monitor turns the flow tuples it keeps into a
:class:`~repro.trace.columnar.FlowTable`; the store pickles that table as
its columns; the pipeline's focus tables are row masks over it.  None of
these steps builds a :class:`~repro.trace.records.FlowRecord`, and each
must equal the record-built form it replaces.
"""

from __future__ import annotations

import pickle
import random
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest

from repro.sim.engine import run_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.trace.columnar import FlowTable, _Columns
from repro.trace.monitor import EdgeMonitor
from repro.trace.records import FlowRecord

from tests.oracle import serving as oracle
from tests.test_columnar_kernels import random_flows

NO_RECORDS = mock.patch.object(
    FlowRecord, "__post_init__", side_effect=AssertionError("a FlowRecord was built")
)


def assert_same_table(got: FlowTable, want: FlowTable) -> None:
    """Every column array and the server coding agree."""
    assert len(got) == len(want)
    got_cols, want_cols = got.columns(), want.columns()
    for name in _Columns.__slots__:
        got_col, want_col = getattr(got_cols, name), getattr(want_cols, name)
        assert got_col.dtype.kind == want_col.dtype.kind, name
        assert np.array_equal(got_col, want_col), name
    for got_part, want_part in zip(got.dst_codes(), want.dst_codes()):
        assert got_part.dtype == want_part.dtype
        assert np.array_equal(got_part, want_part)


@pytest.mark.parametrize("seed", range(4))
def test_masked_table_equals_the_table_of_its_records(seed):
    rng = random.Random(seed)
    records = random_flows(rng, n=150)
    table = FlowTable(records)
    masks = [
        [rng.random() < 0.4 for _ in records],
        [record.dst_ip == records[0].dst_ip for record in records],
        [True] * len(records),
        [False] * len(records),
    ]
    for mask in masks:
        kept = [record for record, keep in zip(records, mask) if keep]
        selected = table.select(np.asarray(mask))
        assert_same_table(selected, FlowTable(kept))
        assert selected.records == kept


def test_focus_tables_equal_the_tables_of_the_focus_records(pipeline):
    for name in pipeline.dataset_names:
        keep = set(pipeline.focus_ips[name])
        focus = [r for r in pipeline.dataset(name).records if r.dst_ip in keep]
        assert_same_table(pipeline.focus_tables[name], FlowTable(focus))


def test_monitor_rows_are_in_stable_start_end_order(tiny_world):
    rng = random.Random(5)
    flows = [
        (t_start, t_start + rng.choice([0.0, 1.0]), rng.randrange(1, 4), 100 + i,
         1000 + i, f"vid{i % 3}", "360p", "video")
        for i, t_start in enumerate(float(rng.randrange(0, 5)) for _ in range(60))
    ]
    monitor = EdgeMonitor(tiny_world.vantage, miss_probability=0.0)
    with NO_RECORDS:
        monitor.observe(flows)
        dataset = monitor.finish("X", 3600.0)
    want = sorted(
        (FlowRecord(src, dst, nbytes, t0, t1, vid, res)
         for t0, t1, src, dst, nbytes, vid, res, _ in flows),
        key=lambda r: (r.t_start, r.t_end),
    )
    assert dataset.records == want
    assert_same_table(dataset.table, FlowTable(want))


@pytest.mark.parametrize(
    "t_end, num_bytes, message",
    [(4.0, 10, "flow ends before it starts"), (6.0, -1, "negative byte count")],
)
def test_bad_columns_raise_the_record_errors(tiny_world, t_end, num_bytes, message):
    rows = [(1, 2, 10, 1.0, 2.0, "v", "360p"), (1, 2, num_bytes, 5.0, t_end, "v", "360p")]
    with pytest.raises(ValueError, match=message):
        FlowTable.from_rows(rows, [itemgetter(index) for index in range(7)])
    monitor = EdgeMonitor(tiny_world.vantage, miss_probability=0.0)
    monitor.observe([(5.0, t_end, 1, 2, num_bytes, "v", "360p", "video")])
    with pytest.raises(ValueError, match=message):
        monitor.finish("X", 3600.0)


def test_pickled_week_loads_as_columns():
    spec = PAPER_SCENARIOS["EU1-FTTH"]
    world, spec_world = (build_world(spec, scale=0.004, seed=3) for _ in range(2))
    with NO_RECORDS:
        blob = pickle.dumps(run_requests(world))
        assert b"FlowRecord" not in blob
        loaded = pickle.loads(blob)
        digest = loaded.dataset.content_digest()
        assert loaded.dataset.total_bytes > 0
    want = oracle.run_requests(spec_world).dataset
    assert loaded.dataset.records == want.records
    assert loaded.dataset.records is loaded.dataset.records  # built once
    assert digest == want.content_digest()
    assert_same_table(loaded.dataset.table, FlowTable(want.records))
