"""Tests for the multi-client Farview event simulation."""

import pytest

from repro.farview.concurrency import simulate_clients
from repro.farview.server import FarviewServer
from repro.relational import (
    AggFunc,
    AggSpec,
    Aggregate,
    Filter,
    QueryPlan,
    Table,
    col,
)
from repro.workloads import uniform_table


def _setup(n_rows=200_000):
    server = FarviewServer()
    server.store("t", Table(uniform_table(n_rows, n_payload_cols=2,
                                          key_max=1_000_000, seed=11)))
    plan = QueryPlan((
        Filter(col("key") < 10_000),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))
    return server, plan


def test_validation():
    server, plan = _setup()
    with pytest.raises(ValueError):
        simulate_clients(server, plan, "t", n_clients=0)
    with pytest.raises(ValueError):
        simulate_clients(server, plan, "t", 1, queries_per_client=0)
    with pytest.raises(ValueError):
        simulate_clients(server, plan, "t", 1, mode="teleport")


def test_single_client_sane():
    server, plan = _setup()
    out = simulate_clients(server, plan, "t", n_clients=1)
    assert out.queries_total == 4
    assert out.makespan_s > 0
    assert out.mean_latency_s > 0
    assert 0 <= out.memory_busy_fraction <= 1
    assert 0 <= out.network_busy_fraction <= 1


def test_offload_aggregate_qps_scales_before_fetch():
    """More tenants fit on one node when only results cross the wire."""
    server, plan = _setup()
    n = 8
    off = simulate_clients(server, plan, "t", n, mode="offload")
    fetch = simulate_clients(server, plan, "t", n, mode="fetch")
    assert off.aggregate_qps > fetch.aggregate_qps
    # Fetch saturates the network; offload does not.
    assert fetch.network_busy_fraction > 0.9
    assert off.network_busy_fraction < 0.1


def test_offload_scaling_bounded_by_memory_scan():
    """Back-to-back clients saturate the shared DRAM scan; aggregate
    QPS stays flat (no collapse) as tenants pile on."""
    server, plan = _setup()
    qps = [
        simulate_clients(server, plan, "t", n, mode="offload").aggregate_qps
        for n in (1, 4, 16)
    ]
    assert qps[2] <= 16 * qps[0] * 1.01  # bounded by the shared scan
    assert min(qps) > 0.9 * max(qps)     # and it does not degrade


def test_fetch_latency_higher_under_equal_load():
    """At the same tenant count, fetch queries queue on the saturated
    wire and see several-fold higher latency than offloaded ones."""
    server, plan = _setup()
    off_8 = simulate_clients(server, plan, "t", 8, mode="offload")
    fetch_8 = simulate_clients(server, plan, "t", 8, mode="fetch")
    assert fetch_8.mean_latency_s > 3 * off_8.mean_latency_s


def test_port_admission_serialises_contending_scans():
    """The shared DRAM port is FIFO: N clients' scans serialise, so the
    makespan is N scans end-to-end, and per-query latency grows with
    the queue ahead of it rather than all queries finishing together."""
    server, plan = _setup()
    solo = simulate_clients(server, plan, "t", 1, queries_per_client=1)
    contended = simulate_clients(server, plan, "t", 8, queries_per_client=1)
    assert contended.queries_total == 8
    # All 8 scans go through one port: the makespan covers ~8 scans.
    assert contended.makespan_s > 6 * solo.makespan_s
    # The mean waits out half the queue: well above solo latency...
    assert contended.mean_latency_s > 3 * solo.mean_latency_s
    # ...and the slowest query (== makespan, clients start together)
    # is about twice the mean of a uniformly draining FIFO queue.
    assert contended.makespan_s < 3 * contended.mean_latency_s


def test_queries_per_client_scales_makespan_not_latency():
    """Back-to-back queries from one client pipeline through the empty
    port: 4x the queries means ~4x the makespan at ~equal per-query
    latency (no self-contention)."""
    server, plan = _setup()
    one = simulate_clients(server, plan, "t", 1, queries_per_client=1)
    four = simulate_clients(server, plan, "t", 1, queries_per_client=4)
    assert four.queries_total == 4
    assert four.makespan_s == pytest.approx(4 * one.makespan_s, rel=0.05)
    assert four.mean_latency_s == pytest.approx(one.mean_latency_s,
                                                rel=0.05)


def test_aggregate_qps_is_makespan_accounting_identity():
    server, plan = _setup()
    out = simulate_clients(server, plan, "t", 4, queries_per_client=3)
    assert out.queries_total == 12
    assert out.aggregate_qps == pytest.approx(
        out.queries_total / out.makespan_s
    )


def test_busy_fractions_reflect_the_contended_resource():
    """Offload at high tenancy pins the DRAM scan near saturation while
    the wire idles; fetch mode inverts the picture."""
    server, plan = _setup()
    off = simulate_clients(server, plan, "t", 16, mode="offload")
    fetch = simulate_clients(server, plan, "t", 16, mode="fetch")
    assert off.memory_busy_fraction > 0.9
    assert off.memory_busy_fraction > off.network_busy_fraction
    assert fetch.network_busy_fraction > 0.9
    assert fetch.network_busy_fraction > fetch.memory_busy_fraction


def test_deterministic_replay():
    server, plan = _setup()
    a = simulate_clients(server, plan, "t", 8, mode="offload")
    b = simulate_clients(server, plan, "t", 8, mode="offload")
    assert a == b
