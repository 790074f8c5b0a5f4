"""Reliability experiment e22: tail latency and goodput under injected
faults."""

from __future__ import annotations

from typing import Any

import numpy as np

from ...bench import ResultTable
from .base import ExperimentSpec, register

_PS_PER_S = 1_000_000_000_000

_E22_SEED = 22
_E22_N_CLIENTS = 4
_E22_REQUESTS_PER_CLIENT = 30
_E22_RESULT_BYTES = 64 * 1024
_E22_SCAN_PS = 8_000_000
_E22_N_NODES = 8
_E22_N_ROUNDS = 10
_E22_BUFFER_ELEMS = 64 * 1024
_E22_RATES = (0.0, 0.001, 0.01)


def _percentiles_us(latencies_ps: list[int]) -> tuple[float, float]:
    arr = np.array(latencies_ps, dtype=np.float64) / 1e6
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def _simulate_farview(rate: float) -> dict:
    """Event-driven: clients retrying scans over one faulty egress."""
    from ...core import Simulator
    from ...faults import FaultPlan, FaultyLink, RetryPolicy, call_with_retries
    from ...network.link import ethernet_100g

    policy = RetryPolicy(
        max_attempts=4,
        timeout_ps=60_000_000,
        backoff_base_ps=2_000_000,
        backoff_multiplier=2.0,
        jitter=0.2,
    )
    sim = Simulator()
    plan = FaultPlan(
        seed=_E22_SEED,
        drop_rate=rate,
        spike_rate=rate,
        spike_ps=(2_000_000, 20_000_000),
    )
    link = FaultyLink(sim, ethernet_100g(), plan, name="farview.egress")
    outcomes = []

    def attempt():
        yield sim.timeout(_E22_SCAN_PS)
        nbytes = yield link.transfer(_E22_RESULT_BYTES)
        return nbytes

    def client(cid: int):
        rng = plan.stream(f"client{cid}.backoff")
        for _ in range(_E22_REQUESTS_PER_CLIENT):
            out = yield from call_with_retries(
                sim, attempt, policy, rng, site=f"client{cid}"
            )
            outcomes.append(out)

    for cid in range(_E22_N_CLIENTS):
        sim.spawn(client(cid), name=f"client{cid}")
    sim.run()

    ok = [o for o in outcomes if o.ok]
    p50, p99 = _percentiles_us([o.latency_ps for o in outcomes])
    wall_s = sim.now / _PS_PER_S
    goodput = len(ok) * _E22_RESULT_BYTES / wall_s / 1e6 if wall_s else 0.0
    return {
        "p50_us": p50,
        "p99_us": p99,
        "goodput": f"{goodput:8.1f} MB/s",
        "retries": sum(o.retries for o in outcomes),
        "gave_up": sum(1 for o in outcomes if not o.ok),
        "n": len(outcomes),
    }


def _simulate_allreduce(rate: float) -> dict:
    """Analytic: repeated ring allreduces, with a crash at the 1% rate."""
    from ...accl import FpgaCluster, allreduce_with_faults
    from ...faults import FaultPlan, NodeOutage

    outages = ()
    if rate >= 0.01:
        # Node 3 dies partway through the run and stays down.
        outages = (NodeOutage(node=3, down_at_ps=400_000_000),)
    plan = FaultPlan(seed=_E22_SEED, drop_rate=rate, outages=outages)
    cluster = FpgaCluster(_E22_N_NODES)
    buffers = [
        np.full(_E22_BUFFER_ELEMS, float(i + 1), dtype=np.float64)
        for i in range(_E22_N_NODES)
    ]
    round_ps: list[int] = []
    retries = 0
    reroutes = 0
    reduced_bytes = 0
    t_ps = 0
    for _ in range(_E22_N_ROUNDS):
        result = allreduce_with_faults(cluster, buffers, plan, start_ps=t_ps)
        expected = sum(
            float(i + 1) for i in range(_E22_N_NODES) if i in result.survivors
        )
        assert np.allclose(result.outcome.buffers[0], expected), (
            "allreduce result must be the survivors' sum"
        )
        step_ps = int(result.time_s * _PS_PER_S)
        round_ps.append(step_ps)
        t_ps += step_ps
        retries += result.retries
        reroutes += int(result.rerouted)
        reduced_bytes += len(result.survivors) * buffers[0].nbytes
    p50, p99 = _percentiles_us(round_ps)
    wall_s = t_ps / _PS_PER_S
    goodput = reduced_bytes / wall_s / 1e9 if wall_s else 0.0
    return {
        "p50_us": p50,
        "p99_us": p99,
        "goodput": f"{goodput:8.2f} GB/s",
        "retries": retries,
        "gave_up": 0,
        "reroutes": reroutes,
    }


def e22_cell(ctx: Any, config: dict, seed: int) -> dict:
    """One (workload, fault-rate) point."""
    rate = config["rate"]
    if config["workload"] == "farview":
        row = _simulate_farview(rate)
    else:
        row = _simulate_allreduce(rate)
    row["workload"] = config["workload"]
    row["rate"] = rate
    return row


def e22_assemble(rows: list[dict]) -> list[ResultTable]:
    """Rebuild the E22 table (and shape claims) from cell dicts."""
    report = ResultTable(
        "E22: tail latency and goodput under injected faults",
        ("workload", "fault %", "p50 us", "p99 us", "goodput",
         "retries", "gave up"),
    )
    farview = {r["rate"]: r for r in rows if r["workload"] == "farview"}
    accl = {r["rate"]: r for r in rows if r["workload"] == "accl"}
    rates = sorted(farview)
    for rate in rates:
        row = farview[rate]
        report.add(
            "farview scans", f"{100 * rate:g}", round(row["p50_us"], 2),
            round(row["p99_us"], 2), row["goodput"], row["retries"],
            row["gave_up"],
        )
    for rate in rates:
        row = accl[rate]
        report.add(
            "accl allreduce", f"{100 * rate:g}", round(row["p50_us"], 2),
            round(row["p99_us"], 2), row["goodput"], row["retries"],
            row["gave_up"],
        )

    clean_fv, clean_ar = farview[rates[0]], accl[rates[0]]
    assert clean_fv["retries"] == 0 and clean_fv["gave_up"] == 0, (
        "the 0% row must be fault-free"
    )
    assert clean_ar["retries"] == 0 and clean_ar["reroutes"] == 0
    worst = max(rates)
    if worst >= 0.01:
        assert farview[worst]["retries"] > 0, (
            "the worst fault rate must actually trigger retries"
        )
        assert accl[worst]["reroutes"] > 0, (
            "the scheduled crash must force a ring->tree reroute"
        )
    for row in list(farview.values()) + list(accl.values()):
        assert row["p99_us"] >= row["p50_us"]
    report.note(
        "farview: 4 clients x 30 scans, silent drops, 60 us attempt "
        "timeout, <=4 attempts; accl: 10 ring allreduces on 8 nodes, "
        "crash at 0.4 ms for the 1% row (ring degrades to survivor tree)"
    )
    return [report]


@register("e22")
def e22_spec(rates: tuple[float, ...] = _E22_RATES) -> ExperimentSpec:
    """E22 over the fault-rate ladder ``rates`` (the lowest must be 0)."""
    grid = tuple(
        [{"workload": "farview", "rate": r} for r in rates]
        + [{"workload": "accl", "rate": r} for r in rates]
    )
    return ExperimentSpec(
        experiment="e22",
        title="fault tolerance: tail latency under injected faults",
        grid=grid,
        seeds=(_E22_SEED,),
        prepare=lambda: None,
        cell=e22_cell,
        assemble=e22_assemble,
    )

