"""Unit and property tests for the HyperLogLog sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import xeon_server
from repro.operators.hll import HyperLogLog, cpu_insert_time_s, hll_kernel_spec


def test_estimate_within_error_bound():
    rng = np.random.default_rng(1)
    for true_n in (1_000, 50_000, 500_000):
        hll = HyperLogLog(precision=12)
        hll.add(rng.integers(0, 1 << 62, size=true_n))
        estimate = hll.estimate()
        bound = 4 * hll.relative_error_bound()  # 4 sigma
        assert abs(estimate - true_n) / true_n < bound


def test_duplicates_do_not_inflate():
    hll = HyperLogLog(precision=12)
    values = np.arange(10_000)
    hll.add(values)
    before = hll.estimate()
    for _ in range(5):
        hll.add(values)
    assert hll.estimate() == before


def test_small_cardinalities_use_linear_counting():
    hll = HyperLogLog(precision=12)
    hll.add(np.arange(50))
    assert abs(hll.estimate() - 50) < 5


def test_empty_sketch_estimates_zero():
    hll = HyperLogLog(precision=8)
    assert hll.estimate() == pytest.approx(0.0, abs=1.0)
    hll.add(np.array([], dtype=np.int64))
    assert hll.estimate() == pytest.approx(0.0, abs=1.0)


def test_precision_validation():
    with pytest.raises(ValueError):
        HyperLogLog(3)
    with pytest.raises(ValueError):
        HyperLogLog(19)


def test_higher_precision_tightens_error():
    assert (HyperLogLog(14).relative_error_bound()
            < HyperLogLog(10).relative_error_bound())


def test_kernel_is_line_rate():
    spec = hll_kernel_spec(precision=12)
    assert spec.ii == 1
    # 300 M items/s of 8-byte keys = 2.4 GB/s per pipe; beats a CPU's
    # scatter-bound update loop.
    cpu = xeon_server()
    n = 100_000_000
    fpga_s = spec.latency_seconds(n)
    cpu_s = cpu_insert_time_s(cpu, n, parallel=False)
    assert fpga_s < cpu_s


def test_cpu_insert_time_scales():
    cpu = xeon_server()
    assert cpu_insert_time_s(cpu, 0) == 0.0
    assert cpu_insert_time_s(cpu, 2_000) == pytest.approx(
        2 * cpu_insert_time_s(cpu, 1_000)
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_estimate_monotone_under_insertion(seed):
    rng = np.random.default_rng(seed)
    hll = HyperLogLog(10)
    previous = 0.0
    for _ in range(3):
        hll.add(rng.integers(0, 1 << 62, size=2_000))
        estimate = hll.estimate()
        assert estimate >= previous * 0.999  # registers only grow
        previous = estimate
