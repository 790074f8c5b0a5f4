"""Unit tests for kernel specs and the burst/item kernel processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocking import FABRIC_300MHZ
from repro.core.kernel import BurstKernel, ItemKernel, KernelSpec, Sink, Source
from repro.core.sim import Simulator
from repro.core.stream import Burst, Stream


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
    """Build source -> kernels -> sink over the given bursts; return sink."""
    sim = Simulator()
    fn = fn or (lambda burst: burst)
    streams = [Stream(sim, depth=2, name=f"s{i}") for i in range(len(specs) + 1)]
    Source(sim, streams[0], bursts)
    for spec, inp, out in zip(specs, streams[:-1], streams[1:]):
        BurstKernel(sim, spec, fn, inp, out)
    sink = Sink(sim, streams[-1])
    sim.run()
    assert sink.done_at_ps is not None
    return sim, sink


def test_burst_kernel_timing_single_burst():
    spec = KernelSpec("k", ii=2, depth=10, clock=FABRIC_300MHZ, unroll=1)
    n = 100
    sim, sink = _run_burst_chain([spec], [Burst(payload=None, count=n)])
    assert sink.done_at_ps == spec.clock.cycles_to_ps(spec.latency_cycles(n))
    assert sink.items == n


def test_burst_kernel_functional_transform():
    spec = KernelSpec("double", ii=1, depth=1, unroll=1)

    def double(burst):
        return Burst(payload=[2 * x for x in burst.payload], count=burst.count)

    sim, sink = _run_burst_chain(
        [spec], [Burst(payload=[1, 2, 3], count=3)], fn=double
    )
    assert [b.payload for b in sink.received] == [[2, 4, 6]]


def test_burst_kernel_can_drop_bursts():
    spec = KernelSpec("filter", ii=1, depth=1, unroll=1)

    def drop_odd(burst):
        return burst if burst.meta.get("keep") else None

    sim = Simulator()
    s_in = Stream(sim, depth=2)
    s_out = Stream(sim, depth=2)
    bursts = [
        Burst(payload=1, count=1, meta={"keep": True}),
        Burst(payload=2, count=1, meta={"keep": False}),
        Burst(payload=3, count=1, meta={"keep": True}),
    ]
    Source(sim, s_in, bursts)
    BurstKernel(sim, spec, drop_odd, s_in, s_out)
    sink = Sink(sim, s_out)
    sim.run()
    assert [b.payload for b in sink.received] == [1, 3]


def test_item_kernel_matches_hls_latency():
    spec = KernelSpec("k", ii=3, depth=12, clock=FABRIC_300MHZ, unroll=1)
    sim = Simulator()
    s_in = Stream(sim, depth=2)
    s_out = Stream(sim, depth=2)
    n = 20
    Source(sim, s_in, list(range(n)))
    ItemKernel(sim, spec, lambda x: x, s_in, s_out)
    sink = Sink(sim, s_out)
    sim.run()
    assert sink.done_at_ps == spec.clock.cycles_to_ps(spec.latency_cycles(n))
    assert sink.received == list(range(n))


def test_item_kernel_rejects_unrolled_spec():
    spec = KernelSpec("k", unroll=2, ii=1, depth=1)
    sim = Simulator()
    with pytest.raises(ValueError):
        ItemKernel(sim, spec, lambda x: x, Stream(sim), Stream(sim))


@settings(max_examples=25, deadline=None)
@given(
    ii=st.integers(min_value=1, max_value=4),
    depth=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=1, max_value=60),
)
def test_property_burst_and_item_kernels_agree_on_total_cycles(ii, depth, n):
    """The burst abstraction must not change the total cycle count."""
    spec = KernelSpec("k", ii=ii, depth=depth, unroll=1)

    # Item-mode run.
    sim_a = Simulator()
    sa_in, sa_out = Stream(sim_a, depth=4), Stream(sim_a, depth=4)
    Source(sim_a, sa_in, list(range(n)))
    ItemKernel(sim_a, spec, lambda x: x, sa_in, sa_out)
    sink_a = Sink(sim_a, sa_out)
    sim_a.run()

    # Burst-mode run (one burst of n items).
    sim_b = Simulator()
    sb_in, sb_out = Stream(sim_b, depth=4), Stream(sim_b, depth=4)
    Source(sim_b, sb_in, [Burst(payload=None, count=n)])
    BurstKernel(sim_b, spec, lambda b: b, sb_in, sb_out)
    sink_b = Sink(sim_b, sb_out)
    sim_b.run()

    assert sink_a.done_at_ps == sink_b.done_at_ps


def test_chain_of_burst_kernels_fill_latency_accumulates():
    specs = [
        KernelSpec("k1", ii=1, depth=5, unroll=1),
        KernelSpec("k2", ii=1, depth=7, unroll=1),
    ]
    n = 50
    sim, sink = _run_burst_chain(specs, [Burst(payload=None, count=n)])
    # Burst moves through k1 fully, then k2; each stage costs its full
    # HLS latency depth + (n-1)*ii.
    expected = (5 + n - 1) + (7 + n - 1)
    assert sink.done_at_ps == FABRIC_300MHZ.cycles_to_ps(expected)


def test_source_interval_paces_items():
    sim = Simulator()
    stream = Stream(sim, depth=8)
    Source(sim, stream, [1, 2, 3], interval_ps=100)
    sink = Sink(sim, stream)
    sim.run()
    assert sink.done_at_ps == 300
    assert sink.items == 3
