"""Integration: functional pipelines over the use-case algorithms.

These tests wire several subsystems together — kernel pipelines,
memory channel models, and the use-case algorithms — and check both
functional equality with the direct numpy paths and the expected
timing behaviour.
"""

import numpy as np

from repro.core import Burst, BurstKernel, KernelSpec, run_pipeline
from repro.fanns.pq import train_pq


def _adc_pipeline(n_pes: int, codes: np.ndarray, table: np.ndarray, pq):
    """Distances of ``codes`` via an ADC PE array.

    Code chunks are dealt round-robin over ``n_pes`` lanes, each a
    source feeding one ADC kernel into its own sink.
    """
    chunk = 64
    bursts = []
    for start in range(0, len(codes), chunk):
        part = codes[start:start + chunk]
        bursts.append(Burst(payload=(start, part), count=len(part)))

    spec = KernelSpec("adc-pe", ii=1, depth=12, unroll=1)

    def score(burst):
        start, part = burst.payload
        dists = pq.adc_distances(table, part)
        return Burst(payload=(start, dists), count=len(part))

    lanes = [
        run_pipeline(bursts[lane::n_pes], [BurstKernel(spec, score)], [4, 4])
        for lane in range(n_pes)
    ]

    result = np.empty(len(codes), dtype=np.float32)
    for lane in lanes:
        for start, dists in (burst.payload for burst in lane.received):
            result[start:start + len(dists)] = dists
    return result, max(lane.done_at_ps for lane in lanes)


def test_adc_pe_array_matches_direct_adc_and_scales():
    rng = np.random.default_rng(3)
    vectors = rng.random((600, 16), dtype=np.float32)
    pq = train_pq(vectors, m=4, ksub=32, max_iterations=5, seed=0)
    codes = pq.encode(vectors)
    table = pq.adc_table(vectors[0])
    want = pq.adc_distances(table, codes)

    got_1, t_1 = _adc_pipeline(1, codes, table, pq)
    got_4, t_4 = _adc_pipeline(4, codes, table, pq)
    assert np.allclose(got_1, want, rtol=1e-5)
    assert np.allclose(got_4, want, rtol=1e-5)
    # More PEs finish sooner (parallel lanes, same work).
    assert t_4 < t_1


def test_offload_and_fetch_match_cpu_engine():
    """CPU engine == offload execution == fetch-side execution, on one
    query."""
    from repro.farview import FarviewClient, FarviewServer
    from repro.relational import (
        Filter,
        Project,
        QueryPlan,
        Table,
        col,
        execute,
    )
    from repro.workloads import uniform_table

    table = Table(uniform_table(5_000, seed=9, n_payload_cols=4,
                                key_max=1_000_000))
    plan = QueryPlan((
        Filter(col("key") < 400_000),
        Project(("key", "val0")),
    ))
    reference = execute(plan, table)

    server = FarviewServer()
    server.store("t", table)
    client = FarviewClient(server)
    assert client.query_offload(plan, "t").result.equals(reference)
    assert client.query_fetch(plan, "t").result.equals(reference)


def test_distributed_distinct_count_with_sketch_merge():
    """HLL sketches built per cluster node and merged at the root give
    the same estimate as a centralized sketch — the pattern ACCL-style
    reductions enable for mergeable aggregates."""
    from repro.operators import HyperLogLog

    rng = np.random.default_rng(11)
    n_nodes = 4
    partitions = [
        rng.integers(0, 1 << 60, size=50_000) for _ in range(n_nodes)
    ]

    centralized = HyperLogLog(12)
    for part in partitions:
        centralized.add(part)

    node_sketches = []
    for part in partitions:
        sketch = HyperLogLog(12)
        sketch.add(part)
        node_sketches.append(sketch)
    # An HLL union is the register-wise max.
    merged = np.maximum.reduce([s.registers for s in node_sketches])
    assert np.array_equal(merged, centralized.registers)


def test_memory_port_feeds_kernel_pipeline():
    """A scan paced by a memory channel upstream of a kernel: the
    source puts one burst each time the channel has read one, and
    completion time respects the slower of channel and kernel."""
    from repro.memory.model import AccessPattern
    from repro.memory.technologies import ddr4_channel

    model = ddr4_channel()
    spec = KernelSpec("scan-op", ii=1, depth=4, unroll=4)
    n_bursts, rows, row_bytes = 16, 4096, 16
    read_ps = model.access_time_ps(rows * row_bytes, AccessPattern.SEQUENTIAL)

    result = run_pipeline(
        [Burst(payload=None, count=rows) for _ in range(n_bursts)],
        [BurstKernel(spec, lambda b: b)], [2, 2], interval_ps=read_ps,
    )
    memory_floor = model.stream_time_ps(rows * row_bytes) * n_bursts
    kernel_floor = spec.clock.cycles_to_ps(
        spec.latency_cycles(n_bursts * rows))
    assert result.done_at_ps >= max(memory_floor, kernel_floor)
    assert result.items_received == n_bursts * rows
