"""Integration: functional pipelines running live in the event engine.

These tests wire several subsystems together — kernels, memory ports,
and the use-case algorithms — and check both functional equality with
the direct numpy paths and the expected timing behaviour.
"""

import numpy as np

from repro.core import (
    Burst,
    BurstKernel,
    KernelSpec,
    Simulator,
    Sink,
    Source,
    Stream,
)
from repro.fanns.pq import train_pq


def _adc_pipeline(n_pes: int, codes: np.ndarray, table: np.ndarray, pq):
    """Distances of ``codes`` via an ADC PE array in the simulator.

    Code chunks are dealt round-robin over ``n_pes`` lanes, each a
    source feeding one ADC kernel into its own sink.
    """
    sim = Simulator()
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

    sinks = []
    for lane in range(n_pes):
        inp = Stream(sim, 4, f"lane{lane}")
        out = Stream(sim, 4, f"scored{lane}")
        Source(sim, inp, bursts[lane::n_pes])
        BurstKernel(sim, spec, score, inp, out)
        sinks.append(Sink(sim, out))
    sim.run()

    result = np.empty(len(codes), dtype=np.float32)
    for sink in sinks:
        for start, dists in (burst.payload for burst in sink.received):
            result[start:start + len(dists)] = dists
    return result, max(sink.done_at_ps for sink in sinks)


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
    """A scan paced by a memory port upstream of a kernel: completion
    time respects the slower of port and kernel."""
    from repro.memory.model import AccessPattern, MemoryPort
    from repro.memory.technologies import ddr4_channel

    sim = Simulator()
    port = MemoryPort(sim, ddr4_channel())
    stream = Stream(sim, 2)
    out = Stream(sim, 2)
    spec = KernelSpec("scan-op", ii=1, depth=4, unroll=4)
    BurstKernel(sim, spec, lambda b: b, stream, out)
    sink = Sink(sim, out)

    n_bursts, rows, row_bytes = 16, 4096, 16

    def reader(sim):
        from repro.core.stream import END_OF_STREAM

        for _ in range(n_bursts):
            yield port.request(rows * row_bytes, AccessPattern.SEQUENTIAL)
            yield stream.put(Burst(payload=None, count=rows))
        yield stream.put(END_OF_STREAM)

    sim.spawn(reader(sim))
    sim.run()
    memory_floor = port.model.stream_time_ps(rows * row_bytes) * n_bursts
    assert sink.done_at_ps >= memory_floor
    assert sink.items == n_bursts * rows
