"""Multi-tenant Farview: concurrent clients in the event simulator.

The analytic client model (:mod:`repro.farview.client`) prices one
query at a time.  Under concurrency the node's *shared resources* —
its DRAM scan bandwidth and its network egress — become the contended
quantities, and the difference between offload and fetch-all changes
character: a fetch-all client occupies the wire for the whole table's
bytes, so a handful of them saturate 100 GbE, while offloaded queries
ship only results and keep scaling until the DRAM scan saturates.

:func:`simulate_clients` runs that contention for real in the
discrete-event engine: every query acquires the shared memory port for
its scan and the shared egress port for its response bytes; ports
serialise (FIFO), clients pipeline their own queries back-to-back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.sim import Simulator, all_of
from ..memory.model import AccessPattern, MemoryModel, MemoryPort
from ..relational.operators import QueryPlan
from .server import FarviewServer

__all__ = ["ConcurrencyResult", "simulate_clients"]

_PS = 1_000_000_000_000


@dataclass(frozen=True)
class ConcurrencyResult:
    """Aggregate outcome of a multi-client run."""

    mode: str
    n_clients: int
    queries_total: int
    makespan_s: float
    aggregate_qps: float
    mean_latency_s: float
    memory_busy_fraction: float
    network_busy_fraction: float


def _egress_model(server: FarviewServer) -> MemoryModel:
    """The node's network egress as a bandwidth/latency resource."""
    link = server.protocol.link
    return MemoryModel(
        name="net-egress",
        capacity_bytes=1 << 62,
        latency_ps=server.protocol.message_ps(0),
        bandwidth_bytes_per_sec=link.bandwidth_bytes_per_sec,
        min_burst_bytes=link.mtu_bytes,
        random_efficiency=1.0,
    )


def _memory_model(server: FarviewServer) -> MemoryModel:
    """The node's aggregate DRAM scan bandwidth as one port."""
    return MemoryModel(
        name="dram-agg",
        capacity_bytes=server.memory_capacity,
        latency_ps=int(server.memory_latency_s * _PS),
        bandwidth_bytes_per_sec=server.memory_bandwidth,
        min_burst_bytes=64,
        random_efficiency=1.0,
    )


def simulate_clients(
    server: FarviewServer,
    plan: QueryPlan,
    table_name: str,
    n_clients: int,
    queries_per_client: int = 4,
    mode: str = "offload",
    tracer=None,
) -> ConcurrencyResult:
    """Run ``n_clients`` issuing queries back-to-back; returns aggregates.

    ``mode`` is ``"offload"`` (scan stays node-side, results cross the
    wire) or ``"fetch"`` (the touched columns cross the wire, the plan
    runs client-side — client CPU time is charged per query).
    ``tracer`` attaches an observability tracer to the internal
    simulator, putting the contended DRAM and egress ports on trace
    tracks for the profiler.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if queries_per_client < 1:
        raise ValueError("need at least one query per client")
    if mode not in ("offload", "fetch"):
        raise ValueError(f"mode must be 'offload' or 'fetch', got {mode!r}")
    table = server.table(table_name)
    touched = plan.columns_needed(table.column_names)
    scan_bytes = sum(table.column(c).nbytes for c in touched)
    if mode == "offload":
        execution = server.execute(plan, table_name)
        wire_bytes = execution.result_bytes
        client_cpu_ps = 0
    else:
        from ..baselines.cpu import xeon_server
        from ..relational.engine import cpu_cost_s

        wire_bytes = scan_bytes
        client_cpu_ps = int(
            cpu_cost_s(plan, table.project(touched), xeon_server()) * _PS
        )

    sim = Simulator(tracer=tracer)
    memory = MemoryPort(sim, _memory_model(server))
    egress = MemoryPort(sim, _egress_model(server))
    request_ps = server.protocol.message_ps(128)
    latencies: list[int] = []

    def client(sim, tag):
        for _ in range(queries_per_client):
            start = sim.now
            yield sim.timeout(request_ps)
            scan_done = memory.request(scan_bytes, AccessPattern.SEQUENTIAL)
            # The node streams into the wire as it scans; both resources
            # are held concurrently and the query waits for the slower.
            wire_done = egress.request(wire_bytes, AccessPattern.SEQUENTIAL)
            yield all_of(sim, [scan_done, wire_done])
            if client_cpu_ps:
                yield sim.timeout(client_cpu_ps)
            latencies.append(sim.now - start)

    for c in range(n_clients):
        sim.spawn(client(sim, c), name=f"client-{c}")
    sim.run()
    makespan_ps = max(1, sim.now)
    total = n_clients * queries_per_client
    return ConcurrencyResult(
        mode=mode,
        n_clients=n_clients,
        queries_total=total,
        makespan_s=makespan_ps / _PS,
        aggregate_qps=total * _PS / makespan_ps,
        mean_latency_s=sum(latencies) / len(latencies) / _PS,
        memory_busy_fraction=min(
            1.0,
            memory.model.stream_time_ps(memory.bytes_moved) / makespan_ps,
        ),
        network_busy_fraction=min(
            1.0,
            egress.model.stream_time_ps(egress.bytes_moved) / makespan_ps,
        ),
    )
