"""Unit tests for the dataflow throughput solver."""

import pytest

from repro.core.clocking import FABRIC_300MHZ
from repro.core.dataflow import DataflowGraph, RateStage
from repro.core.kernel import KernelSpec


def _chain(*specs, gains=None):
    graph = DataflowGraph("chain")
    names = [graph.add(s, source=(i == 0)) for i, s in enumerate(specs)]
    gains = gains or [1.0] * (len(specs) - 1)
    for up, down, g in zip(names[:-1], names[1:], gains):
        graph.connect(up, down, gain=g)
    return graph


def test_single_stage_rate():
    spec = KernelSpec("k", ii=1, depth=1, clock=FABRIC_300MHZ, unroll=1)
    report = _chain(spec).solve()
    assert report.source_rate == pytest.approx(FABRIC_300MHZ.freq_hz)
    assert report.bottleneck == "k"


def test_slowest_stage_wins():
    fast = KernelSpec("fast", ii=1, depth=1, unroll=1)
    slow = KernelSpec("slow", ii=4, depth=1, unroll=1)
    report = _chain(fast, slow).solve()
    assert report.bottleneck == "slow"
    assert report.source_rate == pytest.approx(slow.throughput_items_per_sec())


def test_filter_gain_relaxes_downstream_bound():
    scan = KernelSpec("scan", ii=1, depth=1, unroll=1)
    # Aggregation kernel is 10x slower, but the filter passes only 5%.
    agg = KernelSpec("agg", ii=10, depth=1, unroll=1)
    report = _chain(scan, agg, gains=[0.05]).solve()
    # agg sees 0.05 items per source item: bound = rate/0.05 >> scan rate.
    assert report.bottleneck == "scan"


def test_expander_gain_tightens_downstream_bound():
    source = KernelSpec("src", ii=1, depth=1, unroll=1)
    sink = KernelSpec("snk", ii=1, depth=1, unroll=1)
    report = _chain(source, sink, gains=[8.0]).solve()
    assert report.bottleneck == "snk"
    assert report.source_rate == pytest.approx(
        sink.throughput_items_per_sec() / 8.0
    )


def test_rate_stage_models_memory_port():
    scan = KernelSpec("scan", ii=1, depth=1, unroll=1)
    port = RateStage("hbm-port", rate_items_per_sec=1e6, latency_seconds=1e-7)
    graph = DataflowGraph()
    graph.add(port, source=True)
    graph.add(scan)
    graph.connect("hbm-port", "scan", gain=1.0)
    report = graph.solve()
    assert report.bottleneck == "hbm-port"
    assert report.source_rate == pytest.approx(1e6)
    assert report.fill_latency_seconds >= 1e-7


def test_fill_latency_is_critical_path():
    a = KernelSpec("a", ii=1, depth=10, unroll=1)
    b = KernelSpec("b", ii=1, depth=20, unroll=1)
    report = _chain(a, b).solve()
    expected = FABRIC_300MHZ.cycles_to_seconds(30)
    assert report.fill_latency_seconds == pytest.approx(expected)


def test_diamond_merge_adds_volumes():
    graph = DataflowGraph("diamond")
    graph.add(KernelSpec("src", ii=1, depth=1, unroll=1), source=True)
    graph.add(KernelSpec("left", ii=1, depth=1, unroll=1))
    graph.add(KernelSpec("right", ii=1, depth=1, unroll=1))
    graph.add(KernelSpec("merge", ii=1, depth=1, unroll=1))
    graph.connect("src", "left", gain=0.5)
    graph.connect("src", "right", gain=0.5)
    graph.connect("left", "merge", gain=1.0)
    graph.connect("right", "merge", gain=1.0)
    report = graph.solve()
    merge = next(s for s in report.stages if s.name == "merge")
    assert merge.gain_from_source == pytest.approx(1.0)


def test_cycle_detection():
    graph = DataflowGraph()
    graph.add(KernelSpec("a", ii=1, depth=1, unroll=1), source=True)
    graph.add(KernelSpec("b", ii=1, depth=1, unroll=1))
    graph.connect("a", "b", gain=1.0)
    graph.connect("b", "a", gain=1.0)
    with pytest.raises(ValueError, match="cycle"):
        graph.solve()


def test_duplicate_stage_rejected():
    graph = DataflowGraph()
    graph.add(KernelSpec("a", ii=1, depth=1, unroll=1))
    with pytest.raises(ValueError, match="duplicate"):
        graph.add(KernelSpec("a", ii=1, depth=1, unroll=1))


def test_unknown_edge_endpoint_rejected():
    graph = DataflowGraph()
    graph.add(KernelSpec("a", ii=1, depth=1, unroll=1))
    with pytest.raises(KeyError):
        graph.connect("a", "missing", gain=1.0)


def test_time_for_items_fill_plus_stream():
    spec = KernelSpec("k", ii=1, depth=300, clock=FABRIC_300MHZ, unroll=1)
    report = _chain(spec).solve()
    t = report.time_for_items(3_000_000)
    # ~1 us fill + ~10 ms streaming at (rounded) 300 MHz.
    expected = FABRIC_300MHZ.cycles_to_seconds(300 + 3_000_000)
    assert t == pytest.approx(expected, rel=1e-9)
    assert report.time_for_items(0) == 0.0


def test_solver_matches_event_simulation_for_chain():
    """Analytic solve() agrees with the burst event simulation."""
    from repro.core.kernel import BurstKernel, Sink, Source
    from repro.core.sim import Simulator
    from repro.core.stream import Burst, Stream

    specs = [
        KernelSpec("k1", ii=2, depth=8, unroll=1),
        KernelSpec("k2", ii=3, depth=16, unroll=1),
    ]
    n = 1000
    report = _chain(*specs).solve()

    sim = Simulator()
    streams = [Stream(sim, depth=2) for _ in range(3)]
    Source(sim, streams[0], [Burst(payload=None, count=n)])
    for spec, inp, out in zip(specs, streams[:-1], streams[1:]):
        BurstKernel(sim, spec, lambda b: b, inp, out)
    sink = Sink(sim, streams[-1])
    sim.run()

    simulated = sink.done_at_ps / 1e12
    analytic = report.time_for_items(n)
    # One whole-dataset burst serialises the stages; the analytic model
    # pipelines them. They agree within the sum-of-occupancies bound.
    assert simulated == pytest.approx(analytic, rel=0.75)
    assert simulated >= analytic * 0.99
