"""Unit and integration tests for the Farview use case."""

import numpy as np
import pytest

from repro.farview.client import FarviewClient
from repro.farview.offload import offload_query
from repro.farview.server import FarviewServer
from repro.network.protocol import fpga_rdma
from repro.relational.engine import execute
from repro.relational.expressions import col
from repro.relational.operators import (
    AggFunc,
    AggSpec,
    Aggregate,
    Filter,
    GroupByAggregate,
    Project,
    QueryPlan,
    Transform,
)
from repro.relational.table import Table
from repro.workloads.tables import grouped_table, uniform_table


def _server_with_table(n_rows=10_000, seed=1):
    server = FarviewServer()
    table = Table(uniform_table(n_rows, n_payload_cols=4, seed=seed,
                                key_max=1_000_000))
    server.store("t", table)
    return server, table


def _selective_plan(selectivity=0.05):
    return QueryPlan((
        Filter(col("key") < int(selectivity * 1_000_000)),
        Project(("key", "val0")),
    ))


# -- server basics ----------------------------------------------------------


def test_store_and_read_accounting():
    server, table = _server_with_table()
    read = server.read("t")
    assert read.scan_bytes == table.nbytes
    with pytest.raises(KeyError):
        server.table("missing")


def test_store_duplicate_and_capacity():
    server, table = _server_with_table()
    with pytest.raises(ValueError):
        server.store("t", table)
    tiny = FarviewServer(memory_capacity_bytes=10)
    with pytest.raises(MemoryError):
        tiny.store("big", table)


def test_read_column_pruning_moves_less():
    server, table = _server_with_table()
    full = server.read("t")
    pruned = server.read("t", columns=("key",))
    assert pruned.scan_bytes < full.scan_bytes
    assert pruned.processing_s < full.processing_s


# -- offload execution --------------------------------------------------------


def test_offload_result_matches_cpu_engine():
    server, table = _server_with_table()
    plan = _selective_plan()
    execution = server.execute(plan, "t")
    assert execution.result.equals(execute(plan, table))


def test_offload_scan_is_column_pruned():
    server, table = _server_with_table()
    plan = _selective_plan()
    execution = server.execute(plan, "t")
    touched = plan.columns_needed(table.column_names)
    expected = sum(table[c].nbytes for c in touched)
    assert execution.scan_bytes == expected
    assert execution.scan_bytes < table.nbytes


def test_offload_result_bytes_shrink_with_selectivity():
    server, _ = _server_with_table(50_000)
    tight = server.execute(_selective_plan(0.01), "t")
    loose = server.execute(_selective_plan(0.5), "t")
    assert tight.result_bytes < loose.result_bytes


def test_offload_aggregation_returns_single_row():
    server, table = _server_with_table()
    plan = QueryPlan((
        Filter(col("key") < 500_000),
        Aggregate((AggSpec(AggFunc.SUM, "val0"), AggSpec(AggFunc.COUNT, "key", alias="n"))),
    ))
    execution = server.execute(plan, "t")
    want = execute(plan, table)
    assert execution.result.n_rows == 1
    assert execution.result["sum_val0"][0] == pytest.approx(want["sum_val0"][0])
    # Result payload is tiny regardless of input size.
    assert execution.result_bytes < 100


def test_offload_pipeline_sustains_network_line_rate():
    """The node's datapath never becomes slower than the 100G wire: an
    offloaded query cannot lose throughput vs. just shipping the data."""
    server, table = _server_with_table()
    plan = _selective_plan()
    execution = server.execute(plan, "t")
    touched = plan.columns_needed(table.column_names)
    row_nbytes = table.project(touched).schema.row_nbytes
    source_bytes_per_sec = execution.report.source_rate * row_nbytes
    line_rate = server.protocol.link.bandwidth_bytes_per_sec
    assert source_bytes_per_sec >= line_rate


def test_offload_groupby_matches_engine():
    server = FarviewServer()
    table = Table(grouped_table(20_000, n_groups=64, seed=2))
    server.store("g", table)
    plan = QueryPlan((
        GroupByAggregate("group", (AggSpec(AggFunc.SUM, "value"),)),
    ))
    execution = server.execute(plan, "g")
    want = execute(plan, table)
    assert np.allclose(execution.result["sum_value"], want["sum_value"])


def test_pipeline_resource_check():
    server, _ = _server_with_table()
    demand = server.pipeline_resources(_selective_plan(), "t")
    assert demand.lut > 0
    assert server.device.fits(demand)


def test_offload_invalid_memory_parameters():
    table = Table(uniform_table(10, n_payload_cols=4, key_max=1_000_000,
                                seed=11))
    with pytest.raises(ValueError):
        offload_query(QueryPlan(), table, memory_bandwidth_bytes_per_sec=0,
                      memory_latency_s=0, protocol=fpga_rdma())
    with pytest.raises(ValueError):
        offload_query(QueryPlan(), table, memory_bandwidth_bytes_per_sec=1e9,
                      memory_latency_s=-1, protocol=fpga_rdma())


# -- client comparisons --------------------------------------------------------


def test_offload_and_fetch_agree_functionally():
    server, _ = _server_with_table(20_000)
    client = FarviewClient(server)
    plan = _selective_plan(0.1)
    off = client.query_offload(plan, "t")
    fetch = client.query_fetch(plan, "t")
    assert off.result.equals(fetch.result)
    assert off.mode == "offload"
    assert fetch.mode == "fetch-columns"


def test_offload_moves_fewer_bytes_at_low_selectivity():
    server, _ = _server_with_table(100_000)
    client = FarviewClient(server)
    plan = _selective_plan(0.01)
    off = client.query_offload(plan, "t")
    fetch = client.query_fetch(plan, "t")
    assert off.bytes_over_network < fetch.bytes_over_network / 10


def test_offload_faster_at_low_selectivity():
    server, _ = _server_with_table(1_000_000)
    client = FarviewClient(server)
    plan = QueryPlan((
        Filter(col("key") < 10_000),  # 1% selectivity
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))
    off = client.query_offload(plan, "t")
    fetch = client.query_fetch(plan, "t")
    assert off.latency_s < fetch.latency_s


def test_fetch_moves_only_the_touched_columns():
    server, table = _server_with_table(50_000)
    client = FarviewClient(server)
    plan = _selective_plan(0.1)
    fetch = client.query_fetch(plan, "t")
    touched = table.project(plan.columns_needed(table.column_names))
    assert touched.nbytes < table.nbytes
    assert fetch.breakdown["fetched_bytes"] == touched.nbytes
    assert fetch.result.equals(execute(plan, table))


def test_breakdowns_are_populated():
    server, _ = _server_with_table()
    client = FarviewClient(server)
    off = client.query_offload(_selective_plan(), "t")
    assert {"request_s", "node_processing_s"} <= set(off.breakdown)
    fetch = client.query_fetch(_selective_plan(), "t")
    assert {"transfer_s", "cpu_s"} <= set(fetch.breakdown)
    assert fetch.latency_s >= fetch.breakdown["transfer_s"]


def test_offload_outcome_carries_the_node_report():
    server, _ = _server_with_table()
    client = FarviewClient(server)
    off = client.query_offload(_selective_plan(), "t")
    assert off.report == server.execute(_selective_plan(), "t").report
    assert client.query_fetch(_selective_plan(), "t").report is None


def test_transform_offload_supported():
    server, table = _server_with_table()
    plan = QueryPlan((
        Transform("decrypt", ops_per_byte=2.0),
        Filter(col("key") < 100_000),
    ))
    execution = server.execute(plan, "t")
    assert execution.result.equals(execute(plan, table))
