"""Unit tests for the dataflow chain solver."""

import math

import pytest

from repro.core.clocking import FABRIC_300MHZ
from repro.core.dataflow import RateStage, solve_chain
from repro.core.kernel import KernelSpec


def _chain(*specs, gains=None):
    return solve_chain(specs, gains or [1.0] * (len(specs) - 1))


def test_single_stage_rate():
    spec = KernelSpec("k", ii=1, depth=1, clock=FABRIC_300MHZ, unroll=1)
    report = _chain(spec)
    assert report.source_rate == pytest.approx(FABRIC_300MHZ.freq_hz)
    assert report.bottleneck == "k"


def test_slowest_stage_wins():
    fast = KernelSpec("fast", ii=1, depth=1, unroll=1)
    slow = KernelSpec("slow", ii=4, depth=1, unroll=1)
    report = _chain(fast, slow)
    assert report.bottleneck == "slow"
    assert report.source_rate == pytest.approx(slow.throughput_items_per_sec())


def test_filter_gain_relaxes_downstream_bound():
    scan = KernelSpec("scan", ii=1, depth=1, unroll=1)
    # Aggregation kernel is 10x slower, but the filter passes only 5%.
    agg = KernelSpec("agg", ii=10, depth=1, unroll=1)
    report = _chain(scan, agg, gains=[0.05])
    # agg sees 0.05 items per source item: bound = rate/0.05 >> scan rate.
    assert report.bottleneck == "scan"


def test_expander_gain_tightens_downstream_bound():
    source = KernelSpec("src", ii=1, depth=1, unroll=1)
    sink = KernelSpec("snk", ii=1, depth=1, unroll=1)
    report = _chain(source, sink, gains=[8.0])
    assert report.bottleneck == "snk"
    assert report.source_rate == pytest.approx(
        sink.throughput_items_per_sec() / 8.0
    )


def test_rate_stage_models_memory_port():
    scan = KernelSpec("scan", ii=1, depth=1, unroll=1)
    port = RateStage("hbm-port", rate_items_per_sec=1e6, latency_seconds=1e-7)
    report = _chain(port, scan)
    assert report.bottleneck == "hbm-port"
    assert report.source_rate == pytest.approx(1e6)
    assert report.fill_latency_seconds >= 1e-7


def test_fill_latency_is_critical_path():
    a = KernelSpec("a", ii=1, depth=10, unroll=1)
    b = KernelSpec("b", ii=1, depth=20, unroll=1)
    report = _chain(a, b)
    expected = FABRIC_300MHZ.cycles_to_seconds(30)
    assert report.fill_latency_seconds == pytest.approx(expected)


def test_gains_multiply_along_the_chain():
    stages = [KernelSpec(name, ii=1, depth=1, unroll=1) for name in "abc"]
    slow = KernelSpec("d", ii=100, depth=1, unroll=1)
    report = _chain(*stages, slow, gains=[0.5, 4.0, 0.1])
    # d sees 0.5 * 4 * 0.1 = 0.2 items per source item.
    assert report.bottleneck == "d"
    assert report.source_rate == slow.throughput_items_per_sec() / (
        1.0 * 0.5 * 4.0 * 0.1
    )


def test_zero_gain_leaves_downstream_unbounded():
    scan = KernelSpec("scan", ii=1, depth=1, unroll=1)
    stalled = KernelSpec("stalled", ii=1000, depth=1, unroll=1)
    report = _chain(scan, stalled, gains=[0.0])
    assert report.bottleneck == "scan"
    assert math.isfinite(report.source_rate)


def test_first_of_equal_bounds_is_the_bottleneck():
    a = KernelSpec("a", ii=2, depth=1, unroll=1)
    b = KernelSpec("b", ii=2, depth=1, unroll=1)
    assert _chain(a, b).bottleneck == "a"


def test_duplicate_stage_rejected():
    a = KernelSpec("a", ii=1, depth=1, unroll=1)
    with pytest.raises(ValueError, match="duplicate"):
        _chain(a, KernelSpec("a", ii=2, depth=1, unroll=1))


def test_unknown_edge_endpoint_rejected():
    # A gain needs a stage on each end of its link.
    a = KernelSpec("a", ii=1, depth=1, unroll=1)
    b = KernelSpec("b", ii=1, depth=1, unroll=1)
    with pytest.raises(ValueError, match="need 0 gains"):
        solve_chain([a], [1.0])
    with pytest.raises(ValueError, match="need 1 gains"):
        solve_chain([a, b], [])


def test_negative_gain_rejected():
    a = KernelSpec("a", ii=1, depth=1, unroll=1)
    b = KernelSpec("b", ii=1, depth=1, unroll=1)
    with pytest.raises(ValueError, match=">= 0"):
        solve_chain([a, b], [-0.5])


def test_time_for_items_fill_plus_stream():
    spec = KernelSpec("k", ii=1, depth=300, clock=FABRIC_300MHZ, unroll=1)
    report = _chain(spec)
    t = report.time_for_items(3_000_000)
    # ~1 us fill + ~10 ms streaming at (rounded) 300 MHz.
    expected = FABRIC_300MHZ.cycles_to_seconds(300 + 3_000_000)
    assert t == pytest.approx(expected, rel=1e-9)
    assert report.time_for_items(0) == 0.0


def test_solver_matches_event_simulation_for_chain():
    """The analytic chain solver agrees with the burst pipeline."""
    from repro.core.kernel import BurstKernel
    from repro.core.pipeline import run_pipeline
    from repro.core.stream import Burst

    specs = [
        KernelSpec("k1", ii=2, depth=8, unroll=1),
        KernelSpec("k2", ii=3, depth=16, unroll=1),
    ]
    n = 1000
    report = _chain(*specs)

    result = run_pipeline([Burst(payload=None, count=n)],
                          [BurstKernel(spec, lambda b: b) for spec in specs],
                          [2, 2, 2])

    simulated = result.done_at_ps / 1e12
    analytic = report.time_for_items(n)
    # One whole-dataset burst serialises the stages; the analytic model
    # pipelines them. They agree within the sum-of-occupancies bound.
    assert simulated == pytest.approx(analytic, rel=0.75)
    assert simulated >= analytic * 0.99
