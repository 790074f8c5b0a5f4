"""Profiler tests: busy/stall math on a hand-built two-kernel pipeline."""

import pytest

from repro.core import (
    Burst,
    BurstKernel,
    ClockDomain,
    KernelSpec,
    run_pipeline,
)
from repro.memory.banked import BankedMemory
from repro.memory.model import MemoryModel
from repro.obs import Profiler, Tracer, set_default_tracer

_GHZ = ClockDomain("1ghz", 1000)  # 1000 ps/cycle keeps the math exact


def _profiled_run():
    """Run the pipeline with a profiler's tracer as the default tracer.

    Streams s0 -> k1 -> s1 -> k2 -> s2, each of depth 2.
    """
    prof = Profiler()
    set_default_tracer(prof.tracer)
    try:
        result = run_pipeline(
            [Burst(None, 8) for _ in range(3)],
            [
                BurstKernel(KernelSpec("k1", ii=1, depth=2, clock=_GHZ,
                                       unroll=1), lambda b: b),
                BurstKernel(KernelSpec("k2", ii=4, depth=4, clock=_GHZ,
                                       unroll=1), lambda b: b),
            ],
            [2, 2, 2],
        )
    finally:
        set_default_tracer(None)
    return prof.report(), result


def test_two_kernel_pipeline_busy_math():
    report, result = _profiled_run()
    k1, k2 = result.kernels
    # k1: first burst pays full latency 2+(8-1)*1 = 9 cycles, later
    # bursts occupancy 8 cycles -> 9+8+8 = 25 cycles of 1000 ps.
    assert report.component("kernel:k1").busy_ps == 25_000
    # k2: 4+(8-1)*4 = 32 cycles first, 32 occupancy after -> 96 cycles.
    assert report.component("kernel:k2").busy_ps == 96_000
    assert report.wall_ps == result.done_at_ps
    # profiler busy agrees with the kernels' own accounting
    assert report.component("kernel:k1").busy_ps == k1.busy_ps
    assert report.component("kernel:k2").busy_ps == k2.busy_ps
    # the slow kernel dominates the wall; the fast one mostly stalls
    k1p = report.component("kernel:k1")
    k2p = report.component("kernel:k2")
    assert k2p.busy_fraction > 0.8
    assert k1p.stall_ps > k2p.stall_ps
    assert k1p.busy_ps + k1p.stall_ps <= report.wall_ps
    assert result.items_received == 24


def test_stall_accounting_matches_kernel_counters():
    report, result = _profiled_run()
    k1, k2 = result.kernels
    assert (
        report.component("kernel:k1").stall_ps
        == k1.stall_in_ps + k1.stall_out_ps
    )
    assert (
        report.component("kernel:k2").stall_ps
        == k2.stall_in_ps + k2.stall_out_ps
    )
    # backpressure from k2 shows up on the connecting stream too
    s1 = result.streams[1]
    assert s1.producer_stall_ps > 0
    assert (
        report.component("stream:s1").stall_ps
        == s1.producer_stall_ps + s1.consumer_stall_ps
    )


def test_component_profile_kind_and_name():
    report = _profiled_run()[0]
    comp = report.component("kernel:k1")
    assert comp.track == "kernel:k1"
    # A component is looked up by its full kind:name track.
    for missing in ("k1", "kernel:nope"):
        with pytest.raises(KeyError):
            report.component(missing)


def test_analytic_bank_profiling_without_a_simulator():
    model = MemoryModel(
        name="ch", capacity_bytes=1 << 30, latency_ps=100,
        bandwidth_bytes_per_sec=1e9, min_burst_bytes=32, random_efficiency=1.0,
    )
    prof = Profiler()
    bank = BankedMemory.uniform(model, 4, name="hbm", tracer=prof.tracer)
    bank.allocate("hot", 1 << 20, expected_traffic=1.0)
    bank.allocate("cold", 1 << 20, expected_traffic=1.0)
    makespan = bank.batch_lookup_time_ps({"hot": (64, 32), "cold": (8, 32)})
    report = prof.report()
    busiest = max(report.components, key=lambda c: c.busy_ps)
    assert busiest.busy_ps == makespan
    assert report.wall_ps >= makespan
    snap = prof.tracer.registry.snapshot()
    assert snap["memory.bank_accesses{channel=0,memory=hbm}"] == 64
    assert snap["memory.bank_accesses{channel=1,memory=hbm}"] == 8


def test_bank_conflicts_counted_when_regions_share_a_channel():
    model = MemoryModel(
        name="ch", capacity_bytes=1 << 30, latency_ps=100,
        bandwidth_bytes_per_sec=1e9, min_burst_bytes=32, random_efficiency=1.0,
    )
    tracer = Tracer()
    bank = BankedMemory.uniform(model, 2, name="b", tracer=tracer)
    bank.allocate("a", 1024, channel=0, expected_traffic=1.0)
    bank.allocate("b", 1024, channel=0, expected_traffic=1.0)
    bank.batch_lookup_time_ps({"a": (4, 32), "b": (4, 32)})
    snap = tracer.registry.snapshot()
    assert snap["memory.bank_conflicts{channel=0,memory=b}"] == 1


def test_profiler_wall_is_the_traced_span():
    prof = Profiler()
    prof.tracer.kernel_busy("k", 0, 500, 1)
    prof.tracer.kernel_busy("j", 500, 500, 1)
    report = prof.report()
    assert report.wall_ps == 1000
    assert report.component("kernel:k").busy_fraction == pytest.approx(0.5)
    empty = Profiler().report()
    assert empty.components == () and empty.wall_ps == 0
