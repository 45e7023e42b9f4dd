"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, workloads  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.tracing import Recorder, instrument, self_times  # noqa: E402

DATASET = harness.Dataset(customers=1500, parts=2000, suppliers=100,
                          orders=15000, next_orderkey=15001)


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_same_seed_gives_same_operations(workload):
    first = harness.build_ops(workload, 7, 20, DATASET)
    again = harness.build_ops(workload, 7, 20, DATASET)
    other = harness.build_ops(workload, 8, 20, DATASET)
    assert first == again
    assert first != other
    reads = [op for op in first if op.kind == "read"]
    assert len(reads) == harness.read_count(workload, 20) >= 100


def test_etl_interleaves_loads_at_a_fixed_ratio():
    ops = harness.build_ops("etl", 3, 20, DATASET)
    loads = [i for i, op in enumerate(ops) if op.kind == "load"]
    assert loads == list(range(0, len(ops), harness.READS_PER_LOAD + 1))
    for start in loads:
        cycle = ops[start + 1:start + 1 + harness.READS_PER_LOAD]
        assert len({op.template for op in cycle}) == 1
    keys = [row[0] for i in loads for row in ops[i].orders]
    assert keys == list(range(DATASET.next_orderkey,
                              DATASET.next_orderkey + len(keys)))
    assert len(keys) <= DATASET.orders
    lineitem_keys = {row[0] for i in loads for row in ops[i].lineitems}
    assert lineitem_keys == set(keys)


def test_adhoc_shapes_are_distinct_under_parameterize():
    from repro.service.plan_cache import parameterize

    ops = harness.build_ops("adhoc", 11, 20, DATASET)
    keys = [parameterize(op.sql).key for op in ops]
    assert len(set(keys)) == len(keys)
    warmup = {parameterize(op.sql).key for op in workloads.warmup_reads()}
    assert not warmup & set(keys)


def test_adhoc_joins_follow_keys_only():
    for tables in workloads.join_sets():
        assert 3 <= len(tables) <= 6
        edges = [pair for pair in workloads.EDGES if pair <= set(tables)]
        assert len(edges) == len(tables) - 1  # a tree: no cycles


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile(values, 50) == pytest.approx(50.5)
    with pytest.raises(ValueError):
        percentile(values[:99], 90)
    assert percentile(values[:20], 50) == pytest.approx(10.5)
    with pytest.raises(ValueError):
        percentile(values[:19], 50)


def span(name, start, end, parent, thread, request="op0"):
    return [name, start, end, parent, request, thread]


def test_self_time_per_thread():
    spans = [
        span("op.read", 0.0, 10.0, None, 1),
        span("service.execute", 1.0, 9.0, 0, 1),
        span("service.compile", 2.0, 4.0, 1, 1),
        span("appliance.run", 5.0, 8.0, 1, 1),
        # Worker-thread spans: attributed to the request's root span,
        # overlapping the client's appliance.run, never subtracted from
        # a span on another thread.
        span("appliance.node_sql", 5.5, 7.5, 0, 2),
        span("sql.parse", 5.5, 6.0, 4, 2),
        span("appliance.node_sql", 6.0, 7.0, 0, 3),
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 8.0, 8.0 - 2.0 - 3.0, 2.0, 3.0, 2.0 - 0.5, 0.5, 1.0])


def test_self_time_clips_overlapping_children():
    spans = [
        span("a", 0.0, 4.0, None, 1),
        span("b", 1.0, 3.0, 0, 1),
        span("c", 2.0, 5.0, 0, 1),  # overlaps b and outlives a
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_rows_match_tolerates_summation_order():
    import numpy

    actual = [("A", 1, 0.1 + 0.2), ("B", 2, 3.0)]
    expected = [("B", numpy.int64(2), 3.0), ("A", 1, 0.3)]
    assert harness.rows_match(actual, expected)
    assert not harness.rows_match(actual, [("A", 1, 0.3), ("B", 2, 3.5)])
    assert not harness.rows_match(actual, expected[:1])


def test_instrument_records_layers_and_restores():
    from repro.service import PdwService
    from repro.sql import parser
    from repro.workloads.tpch_datagen import build_tpch_appliance

    original_parse = parser.parse_query
    appliance, shell = build_tpch_appliance(scale=0.001, node_count=2)
    service = PdwService(appliance=appliance, shell=shell)
    recorder = Recorder()
    restore = instrument(recorder)
    try:
        recorder.begin_request("op0", "op.read")
        recorder.active = True
        service.execute("SELECT n_name, COUNT(*) AS n FROM nation, region "
                        "WHERE n_regionkey = r_regionkey GROUP BY n_name")
        recorder.active = False
        recorder.end_request()
    finally:
        restore()
        service.close()
    names = {s[0] for s in recorder.spans}
    assert {"op.read", "service.execute", "service.compile", "sql.parse",
            "optimizer.search", "optimizer.xml", "pdw.enumerate",
            "pdw.dsql", "appliance.run", "appliance.node_sql",
            "obs.stamp", "obs.requests"} <= names
    assert all(s[4] == "op0" and s[2] is not None for s in recorder.spans)
    from repro.service import plan_cache

    assert parser.parse_query is original_parse
    assert plan_cache.parse_query is original_parse
