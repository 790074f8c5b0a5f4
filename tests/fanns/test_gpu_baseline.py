"""Tests for the GPU IVF-PQ baseline."""

import numpy as np
import pytest

from repro.fanns.accelerator import FannsAccelerator
from repro.fanns.cpu_baseline import CpuAnnSearcher
from repro.fanns.gpu_baseline import GpuAnnSearcher
from repro.fanns.ivf import build_ivfpq
from repro.microrec.fleetrec import A100, V100
from repro.workloads.vectors import clustered_dataset

_DS = clustered_dataset(
    n=3000, dim=16, n_queries=30, gt_k=10, n_clusters=24,
    cluster_std=0.2, seed=29,
)
_INDEX = build_ivfpq(_DS.base, nlist=32, m=4, ksub=64, seed=29)
_SCALE = 2_000


def test_gpu_ids_identical_to_cpu_and_fpga():
    gpu = GpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    cpu = CpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    fpga = FannsAccelerator(_INDEX.shape, list_scale=_SCALE)
    g = gpu.search(_INDEX, _DS.queries, 10, 8)
    c = cpu.search(_INDEX, _DS.queries, 10, 8)
    f = fpga.search(_INDEX, _DS.queries, 10, 8)
    assert np.array_equal(g.ids, c.ids)
    assert np.array_equal(g.ids, f.ids)


def test_gpu_throughput_beats_cpu_at_scale():
    """The GPU's HBM feeds the scan far faster than host DRAM."""
    gpu = GpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    cpu = CpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    g = gpu.search(_INDEX, _DS.queries, 10, 16)
    c = cpu.search(_INDEX, _DS.queries, 10, 16)
    assert g.qps > c.qps


def test_fpga_wins_single_query_latency():
    """The FANNS SLA argument: launches + batching hurt the GPU where
    the FPGA pipeline shines."""
    gpu = GpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    fpga = FannsAccelerator(_INDEX.shape, list_scale=_SCALE)
    g = gpu.search(_INDEX, _DS.queries[:1], 10, 4)
    f = fpga.search(_INDEX, _DS.queries[:1], 10, 4)
    assert f.query_latency_s < g.query_latency_s
    # The launch overhead floors GPU latency.
    assert g.query_latency_s >= 4 * gpu.gpu.kernel_launch_s


def test_bigger_gpu_is_faster():
    small = GpuAnnSearcher(_INDEX.shape, gpu=V100, list_scale=_SCALE)
    big = GpuAnnSearcher(_INDEX.shape, gpu=A100, list_scale=_SCALE)
    assert (
        big.search(_INDEX, _DS.queries, 10, 16).batch_time_s
        <= small.search(_INDEX, _DS.queries, 10, 16).batch_time_s
    )


def test_outcome_consistency_and_validation():
    gpu = GpuAnnSearcher(_INDEX.shape)
    out = gpu.search(_INDEX, _DS.queries, 10, 4)
    assert out.batch_time_s > 0
    assert out.qps == pytest.approx(30 / out.batch_time_s)
    with pytest.raises(ValueError):
        GpuAnnSearcher(_INDEX.shape, list_scale=0)
    with pytest.raises(ValueError):
        GpuAnnSearcher(_INDEX.shape, scan_ops_per_code=0)
