"""Tests for the GPU IVF-PQ baseline."""

import pytest

from repro.fanns.accelerator import FannsAccelerator
from repro.fanns.cpu_baseline import CpuAnnSearcher
from repro.fanns.gpu_baseline import GpuAnnSearcher
from repro.fanns.ivf import SearchStats, build_ivfpq
from repro.microrec.fleetrec import A100, V100
from repro.workloads.vectors import clustered_dataset

_DS = clustered_dataset(
    n=3000, dim=16, n_queries=30, gt_k=10, n_clusters=24,
    cluster_std=0.2, seed=29,
)
_INDEX = build_ivfpq(_DS.base, nlist=32, m=4, ksub=64, seed=29)
_SCALE = 2_000


def _stats(queries, nprobe):
    stats = SearchStats()
    _INDEX.search(queries, 10, nprobe, stats=stats)
    return stats


def test_gpu_throughput_beats_cpu_at_scale():
    """The GPU's HBM feeds the scan far faster than host DRAM."""
    gpu = GpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    cpu = CpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    stats = _stats(_DS.queries, 16)
    assert gpu.price(stats).qps > cpu.price(stats).qps


def test_fpga_wins_single_query_latency():
    """The FANNS SLA argument: launches + batching hurt the GPU where
    the FPGA pipeline shines."""
    gpu = GpuAnnSearcher(_INDEX.shape, list_scale=_SCALE)
    fpga = FannsAccelerator(_INDEX.shape, list_scale=_SCALE)
    g = gpu.price(_stats(_DS.queries[:1], 4))
    f = fpga.price(4, 1)
    assert f.query_latency_s < g.query_latency_s
    # The launch overhead floors GPU latency.
    assert g.query_latency_s >= 4 * gpu.gpu.kernel_launch_s


def test_bigger_gpu_is_faster():
    small = GpuAnnSearcher(_INDEX.shape, gpu=V100, list_scale=_SCALE)
    big = GpuAnnSearcher(_INDEX.shape, gpu=A100, list_scale=_SCALE)
    stats = _stats(_DS.queries, 16)
    assert big.price(stats).batch_time_s <= small.price(stats).batch_time_s


def test_outcome_consistency_and_validation():
    gpu = GpuAnnSearcher(_INDEX.shape, list_scale=1)
    out = gpu.price(_stats(_DS.queries, 4))
    assert out.batch_time_s > 0
    assert out.qps == pytest.approx(30 / out.batch_time_s)
    with pytest.raises(ValueError):
        GpuAnnSearcher(_INDEX.shape, list_scale=0)
    with pytest.raises(ValueError):
        GpuAnnSearcher(_INDEX.shape, scan_ops_per_code=0, list_scale=1)
