"""Farview client latency: the fault layer leaves the analytic client
alone (e22 measures faults in the event-driven retry loop), so an
offloaded query costs exactly its breakdown."""

import pytest

from repro.farview.client import FarviewClient
from repro.farview.server import FarviewServer
from repro.relational.expressions import col
from repro.relational.operators import Filter, Project, QueryPlan
from repro.relational.table import Table
from repro.workloads.tables import uniform_table


def _client(n_rows=5_000):
    server = FarviewServer()
    server.store("t", Table(uniform_table(n_rows, n_payload_cols=2, seed=1)))
    return FarviewClient(server)


def _plan():
    return QueryPlan((
        Filter(col("key") < 50_000),
        Project(("key", "val0")),
    ))


def test_offload_without_faults_is_unchanged():
    client = _client()
    out = client.query_offload(_plan(), "t")
    happy = (
        out.breakdown["request_s"]
        + out.breakdown["node_processing_s"]
        + out.breakdown["response_latency_s"]
    )
    assert out.latency_s == pytest.approx(happy)
