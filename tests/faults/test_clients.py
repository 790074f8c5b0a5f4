"""Fault-aware client layer: Farview queries."""

import numpy as np
import pytest

from repro.farview.client import FarviewClient
from repro.farview.server import FarviewServer
from repro.faults import DeadlineExceeded, FaultPlan, RetryPolicy
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


# -- farview ---------------------------------------------------------------


def test_offload_without_faults_is_unchanged():
    client = _client()
    out = client.query_offload(_plan(), "t")
    assert out.breakdown["attempts"] == 1.0
    assert out.breakdown["retries"] == 0.0
    happy = (
        out.breakdown["request_s"]
        + out.breakdown["node_processing_s"]
        + out.breakdown["response_latency_s"]
    )
    assert out.latency_s == pytest.approx(happy)


def test_offload_clean_plan_matches_no_plan():
    client = _client()
    bare = client.query_offload(_plan(), "t")
    clean = client.query_offload(_plan(), "t", faults=FaultPlan(seed=0))
    assert clean.latency_s == pytest.approx(bare.latency_s)
    assert clean.bytes_over_network == bare.bytes_over_network
    assert np.array_equal(
        clean.result.column("key"), bare.result.column("key")
    )


def test_offload_drops_inflate_latency_and_wire_bytes():
    client = _client()
    bare = client.query_offload(_plan(), "t")
    policy = RetryPolicy(max_attempts=8, timeout_ps=2_000_000, jitter=0.0)
    # High drop rate: find a seed whose first offload call retries.
    faulty = client.query_offload(
        _plan(), "t", faults=FaultPlan(seed=1, drop_rate=0.9), retry=policy
    )
    assert faulty.breakdown["retries"] >= 1.0
    assert faulty.latency_s > bare.latency_s
    assert faulty.bytes_over_network > bare.bytes_over_network
    # Functional result is unaffected by the retries.
    assert np.array_equal(
        faulty.result.column("key"), bare.result.column("key")
    )


def test_fetch_retries_resend_the_whole_payload():
    client = _client()
    bare = client.query_fetch(_plan(), "t")
    policy = RetryPolicy(max_attempts=8, timeout_ps=2_000_000, jitter=0.0)
    faulty = client.query_fetch(
        _plan(), "t", faults=FaultPlan(seed=1, drop_rate=0.9), retry=policy
    )
    attempts = int(faulty.breakdown["attempts"])
    assert attempts >= 2
    assert faulty.bytes_over_network == attempts * bare.bytes_over_network


def test_certain_loss_exhausts_the_budget():
    client = _client()
    policy = RetryPolicy(max_attempts=3, timeout_ps=1_000_000, jitter=0.0)
    with pytest.raises(DeadlineExceeded) as info:
        client.query_offload(
            _plan(), "t", faults=FaultPlan(seed=0, drop_rate=1.0),
            retry=policy,
        )
    assert info.value.site == "farview.offload"


def test_tight_deadline_raises():
    client = _client()
    with pytest.raises(DeadlineExceeded):
        client.query_offload(
            _plan(), "t", faults=FaultPlan(seed=0), deadline_s=1e-12
        )
