"""Resilient allreduce: retransmissions, crash reroute, correctness."""

import numpy as np
import pytest

from repro.accl import (
    FpgaCluster,
    HostStagedCluster,
    allreduce_with_faults,
    expected_steps_ring,
)
from repro.faults import FaultPlan, NodeOutage


def _buffers(p, elems=512):
    return [
        np.full(elems, float(i + 1), dtype=np.float64) for i in range(p)
    ]


def test_clean_run_matches_plain_ring():
    cluster = FpgaCluster(8)
    bufs = _buffers(8)
    result = allreduce_with_faults(cluster, bufs, FaultPlan(seed=0))
    plain = cluster.allreduce(bufs, algorithm="ring")
    assert not result.rerouted and result.retries == 0
    assert result.survivors == tuple(range(8))
    assert result.outcome.n_steps == expected_steps_ring(8)
    assert result.time_s == pytest.approx(plain.time_s)
    for buf in result.outcome.buffers:
        assert np.allclose(buf, 36.0)  # 1+2+...+8


def test_drops_cost_time_but_not_correctness():
    cluster = FpgaCluster(8)
    bufs = _buffers(8)
    faulty = allreduce_with_faults(
        cluster, bufs, FaultPlan(seed=1, drop_rate=0.3)
    )
    clean = allreduce_with_faults(cluster, bufs, FaultPlan(seed=1))
    assert faulty.retries > 0
    assert faulty.time_s > clean.time_s
    for buf in faulty.outcome.buffers:
        assert np.allclose(buf, 36.0)


def test_crash_reroutes_to_survivor_tree():
    cluster = FpgaCluster(8)
    bufs = _buffers(8)
    plan = FaultPlan(seed=0, outages=(NodeOutage(node=3, down_at_ps=0),))
    result = allreduce_with_faults(cluster, bufs, plan)
    assert result.rerouted
    assert result.survivors == (0, 1, 2, 4, 5, 6, 7)
    # Survivors agree on the sum of the surviving contributions.
    expected = 36.0 - 4.0  # node 3 contributed value 4
    assert len(result.outcome.buffers) == 7
    for buf in result.outcome.buffers:
        assert np.allclose(buf, expected)


def test_mid_run_crash_charges_wasted_ring_time():
    cluster = FpgaCluster(8)
    bufs = _buffers(8, elems=64 * 1024)
    clean = allreduce_with_faults(cluster, bufs, FaultPlan(seed=0))
    # Crash halfway through the clean run's makespan.
    halfway = int(clean.time_s * 1e12 / 2)
    plan = FaultPlan(seed=0, outages=(NodeOutage(node=1, down_at_ps=halfway),))
    result = allreduce_with_faults(cluster, bufs, plan)
    assert result.rerouted
    assert result.wasted_s > 0
    assert result.time_s > result.wasted_s


def test_host_staged_cluster_reroutes_with_same_flavour():
    cluster = HostStagedCluster(4)
    bufs = _buffers(4)
    plan = FaultPlan(seed=0, outages=(NodeOutage(node=0, down_at_ps=0),))
    result = allreduce_with_faults(cluster, bufs, plan)
    assert result.rerouted and result.survivors == (1, 2, 3)
    for buf in result.outcome.buffers:
        assert np.allclose(buf, 2.0 + 3.0 + 4.0)


def test_deterministic_given_seed():
    def run():
        cluster = FpgaCluster(8)
        result = allreduce_with_faults(
            cluster, _buffers(8), FaultPlan(seed=2, drop_rate=0.2)
        )
        return result.retries, result.time_s, result.survivors

    assert run() == run()


def test_buffer_count_must_match_the_cluster():
    with pytest.raises(ValueError, match="expected 8 buffers, got 4"):
        allreduce_with_faults(FpgaCluster(8), _buffers(4), FaultPlan(seed=0))
