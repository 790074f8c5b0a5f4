"""Unit tests for the Count-Min sketch."""

import numpy as np
import pytest

from repro.baselines import xeon_server
from repro.operators.sketches import (
    CountMinSketch,
    cpu_update_time_s,
    sketch_kernel_spec,
)
from repro.workloads import ZipfSampler


def _zipf_stream(n=100_000, universe=10_000, s=1.1, seed=3):
    rng = np.random.default_rng(seed)
    return ZipfSampler(universe, s, rng).sample(n)


def test_cm_never_underestimates():
    stream = _zipf_stream()
    cm = CountMinSketch(width=4096, depth=4)
    cm.add(stream)
    keys = np.arange(100)
    true = np.array([(stream == k).sum() for k in keys])
    est = cm.query(keys)
    assert (est >= true).all()


def test_cm_error_within_bound_for_heavy_hitters():
    stream = _zipf_stream()
    cm = CountMinSketch(width=4096, depth=4)
    cm.add(stream)
    hot = np.arange(10)
    true = np.array([(stream == k).sum() for k in hot])
    est = cm.query(hot)
    assert ((est - true) <= cm.error_bound()).all()


def test_cm_validation_and_empty():
    with pytest.raises(ValueError):
        CountMinSketch(width=0, depth=4)
    cm = CountMinSketch(16, 2)
    cm.add(np.array([], dtype=np.int64))
    assert cm.total == 0


def test_kernel_spec_line_rate_and_resources():
    narrow = sketch_kernel_spec(counters_per_item=1,
                                counter_bytes_total=8 * 1024)
    wide = sketch_kernel_spec(counters_per_item=8,
                              counter_bytes_total=64 * 1024)
    assert narrow.ii == 1 and wide.ii == 1
    assert wide.resources.lut > narrow.resources.lut
    with pytest.raises(ValueError):
        sketch_kernel_spec(0, 1024)


def test_fpga_beats_cpu_on_sketch_maintenance():
    cpu = xeon_server()
    spec = sketch_kernel_spec(counters_per_item=4,
                              counter_bytes_total=64 * 1024)
    n = 10_000_000
    assert spec.latency_seconds(n) < cpu_update_time_s(
        cpu, n, counters_per_item=4, parallel=False
    )
    assert cpu_update_time_s(cpu, 0, 4) == 0.0
