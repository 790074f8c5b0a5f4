"""Unit tests for kernel specs and the burst/item kernel stages."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocking import FABRIC_300MHZ
from repro.core.kernel import BurstKernel, ItemKernel, KernelSpec
from repro.core.pipeline import run_pipeline
from repro.core.stream import Burst


def test_latency_formula_matches_hls():
    spec = KernelSpec("k", ii=2, depth=10, unroll=1)
    # depth + (n-1) * ii
    assert spec.latency_cycles(1) == 10
    assert spec.latency_cycles(5) == 10 + 4 * 2
    assert spec.latency_cycles(0) == 0


def test_unroll_divides_initiations():
    spec = KernelSpec("k", ii=1, depth=4, unroll=4)
    assert spec.initiations(16) == 4
    assert spec.initiations(17) == 5
    assert spec.latency_cycles(16) == 4 + 3


def test_throughput_scales_with_unroll_and_ii():
    base = KernelSpec("k", ii=1, depth=1, clock=FABRIC_300MHZ, unroll=1)
    slow = KernelSpec("k2", ii=4, depth=1, clock=FABRIC_300MHZ, unroll=1)
    wide = KernelSpec("k3", ii=1, depth=1, unroll=8, clock=FABRIC_300MHZ)
    assert slow.throughput_items_per_sec() == pytest.approx(
        base.throughput_items_per_sec() / 4
    )
    assert wide.throughput_items_per_sec() == pytest.approx(
        base.throughput_items_per_sec() * 8
    )


def test_invalid_spec_parameters_rejected():
    with pytest.raises(ValueError):
        KernelSpec("k", ii=0, depth=1, unroll=1)
    with pytest.raises(ValueError):
        KernelSpec("k", depth=0, ii=1, unroll=1)
    with pytest.raises(ValueError):
        KernelSpec("k", unroll=0, ii=1, depth=1)


def _run_burst_chain(specs, bursts, fn=None):
    """Time source -> kernels -> sink over the given bursts."""
    fn = fn or (lambda burst: burst)
    stages = [BurstKernel(spec, fn) for spec in specs]
    return run_pipeline(bursts, stages, [2] * (len(specs) + 1))


def test_burst_kernel_timing_single_burst():
    spec = KernelSpec("k", ii=2, depth=10, clock=FABRIC_300MHZ, unroll=1)
    n = 100
    result = _run_burst_chain([spec], [Burst(payload=None, count=n)])
    assert result.done_at_ps == spec.clock.cycles_to_ps(
        spec.latency_cycles(n))
    assert result.items_received == n


def test_burst_kernel_functional_transform():
    spec = KernelSpec("double", ii=1, depth=1, unroll=1)

    def double(burst):
        return Burst(payload=[2 * x for x in burst.payload], count=burst.count)

    result = _run_burst_chain(
        [spec], [Burst(payload=[1, 2, 3], count=3)], fn=double
    )
    assert [b.payload for b in result.received] == [[2, 4, 6]]


def test_burst_kernel_can_drop_bursts():
    spec = KernelSpec("filter", ii=1, depth=1, unroll=1)

    def drop_odd(burst):
        return burst if burst.meta.get("keep") else None

    bursts = [
        Burst(payload=1, count=1, meta={"keep": True}),
        Burst(payload=2, count=1, meta={"keep": False}),
        Burst(payload=3, count=1, meta={"keep": True}),
    ]
    result = _run_burst_chain([spec], bursts, fn=drop_odd)
    assert [b.payload for b in result.received] == [1, 3]


def test_item_kernel_matches_hls_latency():
    spec = KernelSpec("k", ii=3, depth=12, clock=FABRIC_300MHZ, unroll=1)
    n = 20
    result = run_pipeline(list(range(n)), [ItemKernel(spec, lambda x: x)],
                          [2, 2])
    assert result.done_at_ps == spec.clock.cycles_to_ps(
        spec.latency_cycles(n))
    assert result.received == list(range(n))


def test_item_kernel_rejects_unrolled_spec():
    spec = KernelSpec("k", unroll=2, ii=1, depth=1)
    with pytest.raises(ValueError):
        ItemKernel(spec, lambda x: x)


@settings(max_examples=25, deadline=None)
@given(
    ii=st.integers(min_value=1, max_value=4),
    depth=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=1, max_value=60),
)
def test_property_burst_and_item_kernels_agree_on_total_cycles(ii, depth, n):
    """The burst abstraction must not change the total cycle count."""
    spec = KernelSpec("k", ii=ii, depth=depth, unroll=1)
    per_item = run_pipeline(list(range(n)), [ItemKernel(spec, lambda x: x)],
                            [4, 4])
    one_burst = run_pipeline([Burst(payload=None, count=n)],
                             [BurstKernel(spec, lambda b: b)], [4, 4])
    assert per_item.done_at_ps == one_burst.done_at_ps


def test_chain_of_burst_kernels_fill_latency_accumulates():
    specs = [
        KernelSpec("k1", ii=1, depth=5, unroll=1),
        KernelSpec("k2", ii=1, depth=7, unroll=1),
    ]
    n = 50
    result = _run_burst_chain(specs, [Burst(payload=None, count=n)])
    # Burst moves through k1 fully, then k2; each stage costs its full
    # HLS latency depth + (n-1)*ii.
    expected = (5 + n - 1) + (7 + n - 1)
    assert result.done_at_ps == FABRIC_300MHZ.cycles_to_ps(expected)


def test_source_interval_paces_items():
    result = run_pipeline([1, 2, 3], [], [8], interval_ps=100)
    assert result.done_at_ps == 300
    assert result.items_received == 3
