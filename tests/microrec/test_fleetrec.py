"""Tests for the FleetRec hybrid GPU-FPGA cluster."""

import numpy as np
import pytest

from repro.microrec.accelerator import MicroRecAccelerator
from repro.microrec.fleetrec import A100, FleetRecCluster, GpuModel, V100
from repro.workloads.traces import lookup_trace, production_like_model
from repro.microrec.embedding import EmbeddingTables

_SPEC = production_like_model(n_tables=30, max_rows=300_000, seed=41)
_TABLES = EmbeddingTables(_SPEC, seed=41)
_TRACE = lookup_trace(_SPEC, batch_size=128, seed=42)


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


def test_fleetrec_logits_match_single_fpga():
    fleet = FleetRecCluster(_TABLES, seed=3)
    single = MicroRecAccelerator(_SPEC, seed=3)
    f = fleet.infer(_TRACE)
    s = single.infer(_TABLES, _TRACE)
    assert np.allclose(f.logits, s.logits, rtol=1e-5, atol=1e-5)


def test_outcome_consistency():
    fleet = FleetRecCluster(_TABLES)
    out = fleet.infer(_TRACE)
    assert out.logits.shape == (128,)
    assert out.batch_time_s >= max(out.lookup_s, out.network_s, out.dnn_s)
    assert out.latency_s > 0
    assert out.qps == pytest.approx(128 / out.batch_time_s)
    with pytest.raises(ValueError):
        fleet.infer(_TRACE[:0])


def test_more_gpu_nodes_shrink_dnn_stage():
    one = FleetRecCluster(_TABLES, n_gpu_nodes=1).infer(_TRACE)
    four = FleetRecCluster(_TABLES, n_gpu_nodes=4).infer(_TRACE)
    assert four.dnn_s <= one.dnn_s


def test_more_lookup_nodes_shrink_lookup_stage():
    one = FleetRecCluster(_TABLES, n_lookup_nodes=1).infer(_TRACE)
    four = FleetRecCluster(_TABLES, n_lookup_nodes=4).infer(_TRACE)
    assert four.lookup_s <= one.lookup_s


def test_network_stage_positive_and_scales_with_batch():
    fleet = FleetRecCluster(_TABLES)
    small = fleet.infer(_TRACE[:1])
    large = fleet.infer(_TRACE)
    assert 0 < small.network_s <= large.network_s


def test_validation():
    with pytest.raises(ValueError):
        FleetRecCluster(_TABLES, n_lookup_nodes=0)
    with pytest.raises(ValueError):
        FleetRecCluster(_TABLES, n_gpu_nodes=0)
