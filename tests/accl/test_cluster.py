"""Timing comparisons: FPGA-direct vs host-staged collectives."""

import numpy as np
import pytest

from repro.accl.cluster import FpgaCluster, HostStagedCluster


def _buffers(p, n=1024, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random(n) for _ in range(p)]


def test_cluster_validation():
    with pytest.raises(ValueError):
        FpgaCluster(0)
    cluster = FpgaCluster(4)
    with pytest.raises(ValueError):
        cluster.broadcast(_buffers(3))
    with pytest.raises(ValueError):
        cluster.allreduce(_buffers(4), algorithm="quantum")


def test_broadcast_functional_and_timed():
    cluster = FpgaCluster(8)
    buffers = _buffers(8)
    out = cluster.broadcast(buffers, root=2)
    for b in out.buffers:
        assert np.array_equal(b, buffers[2])
    assert out.time_s > 0


def test_allreduce_fpga_functional():
    cluster = FpgaCluster(4)
    buffers = _buffers(4, n=64)
    out = cluster.allreduce(buffers)
    want = np.sum(buffers, axis=0)
    for b in out.buffers:
        assert np.allclose(b, want)


def test_fpga_beats_host_staged():
    """The ACCL claim: on-card collectives beat host-staged by a wide
    margin for both small (latency) and large (bandwidth) payloads."""
    p = 8
    for n in (256, 1 << 20):
        buffers = _buffers(p, n=n)
        fpga = FpgaCluster(p).allreduce(buffers)
        host = HostStagedCluster(p).allreduce(buffers)
        assert np.allclose(fpga.buffers[0], host.buffers[0])
        assert fpga.time_s < host.time_s
    # Small-message latency gap should be large (stack overheads).
    small_fpga = FpgaCluster(p).allreduce(_buffers(p, 256))
    small_host = HostStagedCluster(p).allreduce(_buffers(p, 256))
    assert small_host.time_s / small_fpga.time_s > 3


def test_ring_vs_tree_crossover():
    """Small payloads favor the tree (fewer steps), large favor the
    ring (less data per step)."""
    p = 16
    cluster = FpgaCluster(p)
    small = p * 8  # 128 B per node
    large = 8 << 20  # 8 MiB per node
    assert (
        cluster.allreduce_time_s(small, algorithm="tree")
        < cluster.allreduce_time_s(small, algorithm="ring")
    )
    assert (
        cluster.allreduce_time_s(large, algorithm="ring")
        < cluster.allreduce_time_s(large, algorithm="tree")
    )


def test_single_node_collectives_are_free():
    cluster = FpgaCluster(1)
    buffers = _buffers(1, n=8)
    assert cluster.allreduce(buffers).time_s == 0.0
    assert cluster.broadcast(buffers).time_s == 0.0


def test_scaling_more_nodes_costs_more_time_for_tree():
    nbytes = 8 << 12
    small = FpgaCluster(4).allreduce_time_s(nbytes, algorithm="tree")
    large = FpgaCluster(32).allreduce_time_s(nbytes, algorithm="tree")
    assert large > small


def test_ring_allreduce_time_roughly_constant_in_cluster_size():
    """Bandwidth-optimal ring: per-node bytes ~2n regardless of P, so
    time grows only through latency terms."""
    nbytes = 8 << 22
    t4 = FpgaCluster(4).allreduce_time_s(nbytes)
    t16 = FpgaCluster(16).allreduce_time_s(nbytes)
    assert t16 < 2.5 * t4
