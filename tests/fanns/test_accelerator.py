"""Tests for the FANNS accelerator, CPU baseline, and hardware generator."""

import pytest

from repro.core.device import ALVEO_U55C
from repro.fanns.accelerator import FannsAccelerator, FannsConfig
from repro.fanns.cpu_baseline import CpuAnnSearcher
from repro.fanns.generator import HardwareGenerator, default_config_space
from repro.fanns.ivf import SearchStats, build_ivfpq
from repro.fanns.recall import recall_at_k
from repro.workloads.vectors import clustered_dataset

_DS = clustered_dataset(
    n=4000, dim=16, n_queries=30, gt_k=10, n_clusters=32,
    cluster_std=0.08, seed=5,
)
_INDEX = build_ivfpq(_DS.base, nlist=32, m=4, ksub=64, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        FannsConfig(n_adc_pes=0)
    with pytest.raises(ValueError):
        FannsConfig(n_hbm_channels=0)


def test_config_resources_scale_with_pes():
    small = FannsConfig(n_adc_pes=8).resources(m=4)
    big = FannsConfig(n_adc_pes=64).resources(m=4)
    assert big.bram_36k > small.bram_36k
    assert big.lut > small.lut


def test_default_config_fits_u55c():
    demand = FannsConfig().resources(m=8)
    assert ALVEO_U55C.fits(demand)


def test_misfit_config_raises_resource_warning():
    config = FannsConfig(n_distance_pes=4096, n_adc_pes=4096)
    with pytest.raises(ResourceWarning, match=ALVEO_U55C.name):
        FannsAccelerator(_INDEX.shape, config, list_scale=1)


def test_accelerator_recall_matches_index():
    """The accelerator prices ``index.search``; its recall is the index's."""
    ids = _INDEX.search(_DS.queries, 10, 16)
    assert recall_at_k(ids, _DS.ground_truth) > 0.5


def test_stage_times_positive_and_latency_is_sum():
    accel = FannsAccelerator(_INDEX.shape, list_scale=1)
    stages = accel.stage_times(nprobe=8)
    parts = [stages.coarse_s, stages.select_s, stages.lut_s,
             stages.scan_s, stages.topk_drain_s]
    assert all(p > 0 for p in parts)
    assert stages.latency_s == pytest.approx(sum(parts))
    assert stages.bottleneck_s == pytest.approx(max(parts))


def test_qps_decreases_with_nprobe():
    accel = FannsAccelerator(_INDEX.shape, list_scale=1)
    assert accel.price(2, 1).qps > accel.price(32, 1).qps


def test_more_adc_pes_speed_up_scan():
    slow = FannsAccelerator(_INDEX.shape, FannsConfig(n_adc_pes=8),
                            list_scale=1)
    fast = FannsAccelerator(_INDEX.shape, FannsConfig(n_adc_pes=64),
                            list_scale=1)
    assert fast.stage_times(32).scan_s <= slow.stage_times(32).scan_s


def test_batch_time_pipelines_queries():
    accel = FannsAccelerator(_INDEX.shape, list_scale=1)
    n = _DS.queries.shape[0]
    out = accel.price(8, n)
    serial = n * out.stages.latency_s
    assert out.batch_time_s < serial
    assert out.batch_time_s >= out.stages.latency_s


def test_nprobe_validation():
    accel = FannsAccelerator(_INDEX.shape, list_scale=1)
    with pytest.raises(ValueError):
        accel.stage_times(0)
    with pytest.raises(ValueError):
        accel.stage_times(_INDEX.nlist + 1)


def test_fpga_beats_cpu_on_latency():
    """The FANNS claim: accelerator latency is well below CPU latency."""
    accel = FannsAccelerator(_INDEX.shape, list_scale=1)
    cpu = CpuAnnSearcher(_INDEX.shape, list_scale=1)
    stats = SearchStats()
    _INDEX.search(_DS.queries, 10, 16, stats=stats)
    a = accel.price(16, len(_DS.queries))
    c = cpu.price(stats)
    assert a.query_latency_s < c.query_latency_s


def test_cpu_outcome_counts():
    cpu = CpuAnnSearcher(_INDEX.shape, list_scale=1)
    stats = SearchStats()
    _INDEX.search(_DS.queries, 10, 8, stats=stats)
    out = cpu.price(stats)
    assert out.stats.n_queries == 30
    assert out.qps > 0
    assert out.batch_time_s > 0
    assert out.query_latency_s > 0


# -- generator ----------------------------------------------------------------


def _generator():
    return HardwareGenerator(
        _INDEX, _DS.queries, _DS.ground_truth, k=10, device=ALVEO_U55C,
        list_scale=1
    )


def test_generator_recall_curve_monotone():
    gen = _generator()
    r = [gen.recall_at_nprobe(p) for p in (1, 4, 16, 32)]
    assert r == sorted(r)


def test_min_nprobe_for_target():
    gen = _generator()
    low = gen.min_nprobe_for(0.1, [1, 2, 4, 8, 16, 32])
    high = gen.min_nprobe_for(gen.recall_at_nprobe(32) - 1e-9,
                              [1, 2, 4, 8, 16, 32])
    assert low is not None and high is not None
    assert low <= high
    assert gen.min_nprobe_for(1.01, [1, 32]) is None


def test_explore_returns_feasible_best():
    gen = _generator()
    best, points = gen.explore(recall_target=0.5)
    assert best is not None
    assert best.fits
    assert best.recall >= 0.5
    assert best.qps == max(p.qps for p in points if p.fits)
    assert len(points) == len(default_config_space())


def test_explore_unreachable_target_returns_none():
    gen = _generator()
    best, points = gen.explore(recall_target=0.9999999)
    if best is not None:  # PQ might be that good on this easy dataset
        assert best.recall >= 0.9999999
    else:
        assert points == []


def test_explore_marks_infeasible_configs():
    gen = _generator()
    huge = FannsConfig(n_distance_pes=32, n_lut_pes=32,
                       n_adc_pes=10_000, n_hbm_channels=32)
    best, points = gen.explore(recall_target=0.3, configs=[huge])
    assert best is None
    assert len(points) == 1
    assert not points[0].fits


def test_explore_validation():
    gen = _generator()
    with pytest.raises(ValueError):
        gen.explore(recall_target=1.5)


def test_generator_constructor_validation():
    with pytest.raises(ValueError):
        HardwareGenerator(_INDEX, _DS.queries, _DS.ground_truth[:5], k=10,
                          list_scale=1)
    with pytest.raises(ValueError):
        HardwareGenerator(_INDEX, _DS.queries, _DS.ground_truth, k=99,
                          list_scale=1)


def test_higher_recall_target_costs_qps():
    gen = _generator()
    low_best, _ = gen.explore(recall_target=0.2, nprobes=[1, 32])
    high_best, _ = gen.explore(
        recall_target=gen.recall_at_nprobe(32) - 1e-9, nprobes=[1, 32]
    )
    assert low_best is not None and high_best is not None
    assert low_best.qps >= high_best.qps

