"""Tests for the FANNS accelerator, CPU baseline, and hardware generator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.device import ALVEO_U55C
from repro.fanns.accelerator import FannsAccelerator, FannsConfig
from repro.fanns.cpu_baseline import CpuAnnSearcher
from repro.fanns.generator import (
    DesignPoint,
    HardwareGenerator,
    default_config_space,
)
from repro.fanns.gpu_baseline import GpuAnnSearcher
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


def test_accelerator_and_cpu_return_identical_ids():
    accel = FannsAccelerator(_INDEX.shape)
    cpu = CpuAnnSearcher(_INDEX.shape)
    a = accel.search(_INDEX, _DS.queries, k=10, nprobe=8)
    c = cpu.search(_INDEX, _DS.queries, k=10, nprobe=8)
    assert np.array_equal(a.ids, c.ids)


def test_accelerator_recall_matches_index():
    accel = FannsAccelerator(_INDEX.shape)
    out = accel.search(_INDEX, _DS.queries, k=10, nprobe=16)
    want = _INDEX.search(_DS.queries, 10, 16)
    assert np.array_equal(out.ids, want)
    assert recall_at_k(out.ids, _DS.ground_truth) > 0.5


def test_stage_times_positive_and_latency_is_sum():
    accel = FannsAccelerator(_INDEX.shape)
    stages = accel.stage_times(nprobe=8)
    parts = [stages.coarse_s, stages.select_s, stages.lut_s,
             stages.scan_s, stages.topk_drain_s]
    assert all(p > 0 for p in parts)
    assert stages.latency_s == pytest.approx(sum(parts))
    assert stages.bottleneck_s == pytest.approx(max(parts))


def test_qps_decreases_with_nprobe():
    accel = FannsAccelerator(_INDEX.shape)
    assert accel.price(2, 1).qps > accel.price(32, 1).qps


def test_more_adc_pes_speed_up_scan():
    slow = FannsAccelerator(_INDEX.shape, FannsConfig(n_adc_pes=8))
    fast = FannsAccelerator(_INDEX.shape, FannsConfig(n_adc_pes=64))
    assert fast.stage_times(32).scan_s <= slow.stage_times(32).scan_s


def test_batch_time_pipelines_queries():
    accel = FannsAccelerator(_INDEX.shape)
    out = accel.search(_INDEX, _DS.queries, 10, 8)
    n = _DS.queries.shape[0]
    serial = n * out.stages.latency_s
    assert out.batch_time_s < serial
    assert out.batch_time_s >= out.stages.latency_s


def test_nprobe_validation():
    accel = FannsAccelerator(_INDEX.shape)
    with pytest.raises(ValueError):
        accel.stage_times(0)
    with pytest.raises(ValueError):
        accel.stage_times(_INDEX.nlist + 1)


def test_fpga_beats_cpu_on_latency():
    """The FANNS claim: accelerator latency is well below CPU latency."""
    accel = FannsAccelerator(_INDEX.shape)
    cpu = CpuAnnSearcher(_INDEX.shape)
    a = accel.search(_INDEX, _DS.queries, 10, 16)
    c = cpu.search(_INDEX, _DS.queries, 10, 16)
    assert a.query_latency_s < c.query_latency_s


def test_cpu_outcome_counts():
    cpu = CpuAnnSearcher(_INDEX.shape)
    out = cpu.search(_INDEX, _DS.queries, 10, 8)
    assert out.stats.n_queries == 30
    assert out.qps > 0
    assert out.batch_time_s > 0
    assert out.query_latency_s > 0


# -- generator ----------------------------------------------------------------


def _generator():
    return HardwareGenerator(
        _INDEX, _DS.queries, _DS.ground_truth, k=10, device=ALVEO_U55C
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
        HardwareGenerator(_INDEX, _DS.queries, _DS.ground_truth[:5], k=10)
    with pytest.raises(ValueError):
        HardwareGenerator(_INDEX, _DS.queries, _DS.ground_truth, k=99)


def test_higher_recall_target_costs_qps():
    gen = _generator()
    low_best, _ = gen.explore(recall_target=0.2, nprobes=[1, 32])
    high_best, _ = gen.explore(
        recall_target=gen.recall_at_nprobe(32) - 1e-9, nprobes=[1, 32]
    )
    assert low_best is not None and high_best is not None
    assert low_best.qps >= high_best.qps


def test_search_is_the_index_search_priced():
    """Each engine's ``search`` is one ``index.search`` and its price."""
    stats = SearchStats()
    ids = _INDEX.search(_DS.queries, 10, 8, stats=stats)
    accel = FannsAccelerator(_INDEX.shape)
    a = accel.search(_INDEX, _DS.queries, 10, 8)
    assert np.array_equal(a.ids, ids)
    assert replace(a, ids=None) == accel.price(8, len(_DS.queries))
    for engine in (CpuAnnSearcher(_INDEX.shape), GpuAnnSearcher(_INDEX.shape)):
        out = engine.search(_INDEX, _DS.queries, 10, 8)
        assert np.array_equal(out.ids, ids)
        assert replace(out, ids=None) == engine.price(stats)


def test_search_rejects_an_index_of_another_shape():
    other = build_ivfpq(_DS.base, nlist=16, m=4, ksub=64, seed=1)
    for engine in (FannsAccelerator(_INDEX.shape),
                   CpuAnnSearcher(_INDEX.shape),
                   GpuAnnSearcher(_INDEX.shape)):
        with pytest.raises(ValueError):
            engine.search(other, _DS.queries, 10, 4)
