"""Unit tests for the roofline CPU model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpu import CpuModel, xeon_server


def test_simd_lanes():
    cpu = xeon_server()
    assert cpu.simd_lanes(4) == 8  # fp32 in AVX2
    assert cpu.simd_lanes(1) == 32
    assert cpu.simd_lanes(64) == 1
    with pytest.raises(ValueError):
        cpu.simd_lanes(0)


def test_compute_time_scales_inversely_with_parallelism():
    cpu = xeon_server()
    serial = cpu.compute_time_s(1_000_000, parallel=False, element_bytes=4)
    parallel = cpu.compute_time_s(1_000_000, parallel=True, element_bytes=4)
    assert serial == pytest.approx(parallel * cpu.cores)


def test_stream_time_is_bandwidth_bound():
    cpu = xeon_server()
    assert cpu.stream_time_s(160_000_000_000) == pytest.approx(1.0)


def test_scan_roofline_switches_regimes():
    cpu = xeon_server()
    n = 1 << 30
    light = cpu.scan_time_s(n, ops_per_byte=0.01)
    heavy = cpu.scan_time_s(n, ops_per_byte=100.0)
    assert light == pytest.approx(cpu.stream_time_s(n))
    assert heavy > light
    assert heavy == pytest.approx(cpu.compute_time_s(100 * n, element_bytes=4))


def test_random_access_llc_vs_dram():
    cpu = xeon_server()
    hot = cpu.random_access_time_s(10_000, 64, working_set_bytes=1 << 20)
    cold = cpu.random_access_time_s(10_000, 64, working_set_bytes=1 << 34)
    assert cold > hot


def test_random_access_wide_reads_cost_more_lines():
    cpu = xeon_server()
    narrow = cpu.random_access_time_s(1000, 64, 1 << 34)
    wide = cpu.random_access_time_s(1000, 256, 1 << 34)
    assert wide == pytest.approx(4 * narrow, rel=0.3)


def test_zero_work_costs_nothing():
    cpu = xeon_server()
    assert cpu.compute_time_s(0, element_bytes=4) == 0.0
    assert cpu.stream_time_s(0) == 0.0
    assert cpu.random_access_time_s(0, 64, 1) == 0.0
    assert cpu.scan_time_s(0, ops_per_byte=0.25) == 0.0


def test_gemv_small_weights_compute_bound():
    cpu = xeon_server()
    t = cpu.gemv_time_s(256, 256)
    assert t == pytest.approx(cpu.compute_time_s(256 * 256, parallel=False,
                                                 element_bytes=4))


def test_gemv_large_weights_memory_bound():
    cpu = xeon_server()
    rows = cols = 8192  # 256 MiB of fp32 weights >> LLC
    t = cpu.gemv_time_s(rows, cols, parallel=False)
    assert t >= cpu.stream_time_s(rows * cols * 4, parallel=False)


def test_invalid_model_rejected():
    with pytest.raises(ValueError):
        CpuModel(name="bad", cores=0)
    with pytest.raises(ValueError):
        CpuModel(name="bad", dram_bandwidth=0)


@settings(max_examples=40, deadline=None)
@given(
    nbytes=st.integers(min_value=1, max_value=1 << 32),
    ops=st.floats(min_value=0.0, max_value=10.0),
)
def test_property_scan_never_beats_pure_bandwidth(nbytes, ops):
    cpu = xeon_server()
    assert cpu.scan_time_s(nbytes, ops_per_byte=ops) >= cpu.stream_time_s(nbytes)
