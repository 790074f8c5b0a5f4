"""Tests for the FleetRec hybrid GPU-FPGA cluster."""

import pytest

from repro.microrec.accelerator import MicroRecAccelerator
from repro.microrec.fleetrec import A100, FleetRecCluster, GpuModel, V100
from repro.workloads.traces import production_like_model

_SPEC = production_like_model(n_tables=30, max_rows=300_000, seed=41)


def test_gpu_model_validation():
    with pytest.raises(ValueError):
        GpuModel(name="bad", flops=0, hbm_bandwidth=1)
    with pytest.raises(ValueError):
        GpuModel(name="bad", flops=1, hbm_bandwidth=1, kernel_launch_s=-1)
    with pytest.raises(ValueError):
        V100.mlp_time_s(100, 100, batch=0)


def test_gpu_mlp_time_regimes():
    small = V100.mlp_time_s(macs=1_000, weight_bytes=1_000, batch=1)
    assert small == pytest.approx(V100.kernel_launch_s, rel=0.01)
    big_compute = V100.mlp_time_s(macs=10 ** 9, weight_bytes=1_000,
                                  batch=1000)
    assert big_compute > 1000 * 10 ** 9 / V100.flops * 0.99
    assert A100.mlp_time_s(10 ** 9, 10 ** 9, 100) < V100.mlp_time_s(
        10 ** 9, 10 ** 9, 100
    )


def test_one_lookup_node_prices_lookups_as_one_fpga():
    fleet = FleetRecCluster(_SPEC, n_lookup_nodes=1, n_gpu_nodes=1)
    single = MicroRecAccelerator(_SPEC)
    for batch in (1, 128):
        assert fleet.price(batch).lookup_s == single.lookup_time_s(batch)
    assert fleet.mlp.layer_shapes == single.mlp.layer_shapes


def test_outcome_consistency():
    fleet = FleetRecCluster(_SPEC, n_lookup_nodes=1, n_gpu_nodes=1)
    out = fleet.price(128)
    assert out.batch_time_s >= max(out.lookup_s, out.network_s, out.dnn_s)
    assert out.latency_s > 0
    assert out.qps == pytest.approx(128 / out.batch_time_s)
    with pytest.raises(ValueError):
        fleet.price(0)


def test_more_gpu_nodes_shrink_dnn_stage():
    one = FleetRecCluster(_SPEC, n_gpu_nodes=1, n_lookup_nodes=1).price(128)
    four = FleetRecCluster(_SPEC, n_gpu_nodes=4, n_lookup_nodes=1).price(128)
    assert four.dnn_s <= one.dnn_s


def test_more_lookup_nodes_shrink_lookup_stage():
    one = FleetRecCluster(_SPEC, n_lookup_nodes=1, n_gpu_nodes=1).price(128)
    four = FleetRecCluster(_SPEC, n_lookup_nodes=4, n_gpu_nodes=1).price(128)
    assert four.lookup_s <= one.lookup_s


def test_network_stage_positive_and_scales_with_batch():
    fleet = FleetRecCluster(_SPEC, n_lookup_nodes=1, n_gpu_nodes=1)
    small = fleet.price(1)
    large = fleet.price(128)
    assert 0 < small.network_s <= large.network_s


def test_validation():
    with pytest.raises(ValueError):
        FleetRecCluster(_SPEC, n_lookup_nodes=0, n_gpu_nodes=1)
    with pytest.raises(ValueError):
        FleetRecCluster(_SPEC, n_gpu_nodes=0, n_lookup_nodes=1)
