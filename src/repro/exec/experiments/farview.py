"""Farview experiments (Use Case I): e3 (offload vs fetch), e4
(multi-operator pipelines), e19 (multi-tenant event simulation)."""

from __future__ import annotations

from typing import Any

from ...bench import ResultTable
from .base import ExperimentSpec, register

# -- E3: offload vs fetch-all (Figure 2) ------------------------------------

_E3_N_ROWS = 2_000_000
_E3_KEY_MAX = 1_000_000
_E3_AGG_SELECTIVITIES = (0.001, 0.01, 0.1, 0.5, 1.0)
_E3_PROJ_SELECTIVITIES = (0.01, 0.25, 0.5, 1.0)


def e3_prepare() -> dict:
    from ...farview import FarviewClient, FarviewServer
    from ...relational import Table
    from ...workloads import uniform_table

    server = FarviewServer()
    # The queries read only key and val0; val0 is drawn first, so its
    # values do not depend on how many payload columns follow it.
    server.store(
        "t",
        Table(uniform_table(_E3_N_ROWS, n_payload_cols=1,
                            key_max=_E3_KEY_MAX, seed=11)),
    )
    return {"client": FarviewClient(server)}


def e3_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...relational import (
        AggFunc,
        AggSpec,
        Aggregate,
        Filter,
        Project,
        QueryPlan,
        col,
    )

    client = ctx["client"]
    selectivity = config["selectivity"]
    predicate = Filter(col("key") < int(selectivity * _E3_KEY_MAX))
    if config["part"] == "agg":
        plan = QueryPlan((
            predicate, Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
        ))
    else:
        plan = QueryPlan((predicate, Project(("key", "val0"))))
    off = client.query_offload(plan, "t")
    fetch = client.query_fetch(plan, "t")
    if config["part"] == "agg":
        assert off.result.equals(fetch.result)
    return {
        "part": config["part"],
        "selectivity": selectivity,
        "offload_ms": off.latency_s * 1e3,
        "fetch_ms": fetch.latency_s * 1e3,
        "speedup": fetch.latency_s / off.latency_s,
        "offload_bytes": off.bytes_over_network,
        "fetch_bytes": fetch.bytes_over_network,
    }


def e3_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    agg = [r for r in rows if r["part"] == "agg"]
    proj = [r for r in rows if r["part"] == "proj"]
    if agg:
        report = ResultTable(
            "E3a: offload vs fetch, SELECT sum(val0) WHERE key < t",
            ("selectivity", "offload ms", "fetch ms", "speedup",
             "offload B", "fetch B"),
        )
        for row in agg:
            report.add(
                row["selectivity"], row["offload_ms"], row["fetch_ms"],
                row["speedup"], row["offload_bytes"], row["fetch_bytes"],
            )
        assert all(r["speedup"] > 1.0 for r in agg), \
            "offloaded agg always wins"
        tables.append(report)
    if proj:
        report = ResultTable(
            "E3b: crossover, SELECT key, val0 WHERE key < t",
            ("selectivity", "offload ms", "fetch ms", "speedup"),
        )
        for row in proj:
            report.add(
                row["selectivity"], row["offload_ms"], row["fetch_ms"],
                row["speedup"],
            )
        speedups = [r["speedup"] for r in proj]
        assert speedups[0] > speedups[-1], \
            "advantage shrinks with selectivity"
        assert abs(speedups[-1] - 1.0) <= 0.15, "crossover at 1.0"
        tables.append(report)
    return tables


@register("e3")
def _e3_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "agg", "selectivity": s} for s in _E3_AGG_SELECTIVITIES]
        + [{"part": "proj", "selectivity": s}
           for s in _E3_PROJ_SELECTIVITIES]
    )
    return ExperimentSpec(
        experiment="e3",
        title="Farview offload vs fetch (Fig 2)",
        grid=grid,
        seeds=(0,),
        prepare=e3_prepare,
        cell=e3_cell,
        assemble=e3_assemble,
    )


# -- E4: multi-operator offload pipelines -----------------------------------

_E4_N_ROWS = 1_000_000
_E4_PIPELINES = (
    "filter",
    "filter+project",
    "decrypt+filter+agg",
    "decrypt+filter+groupby",
)


def _e4_plan(name: str):
    from ...relational import (
        AggFunc,
        AggSpec,
        Aggregate,
        Filter,
        GroupByAggregate,
        Project,
        QueryPlan,
        Transform,
        col,
    )

    predicate = Filter(col("value") > 0.5)
    if name == "filter":
        return QueryPlan((predicate,))
    if name == "filter+project":
        return QueryPlan((predicate, Project(("group",))))
    if name == "decrypt+filter+agg":
        return QueryPlan((
            Transform("decrypt", ops_per_byte=2.0),
            predicate,
            Aggregate((AggSpec(AggFunc.SUM, "value"),)),
        ))
    return QueryPlan((
        Transform("decrypt", ops_per_byte=2.0),
        predicate,
        GroupByAggregate("group", (
            AggSpec(AggFunc.SUM, "value"),
            AggSpec(AggFunc.COUNT, "value", alias="n"),
        )),
    ))


def e4_prepare() -> dict:
    from ...farview import FarviewClient, FarviewServer
    from ...relational import Table
    from ...workloads import grouped_table

    server = FarviewServer()
    data = Table(grouped_table(_E4_N_ROWS, n_groups=256, seed=4))
    server.store("t", data)
    return {"server": server, "data": data,
            "client": FarviewClient(server)}


def e4_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...relational import execute

    name = config["pipeline"]
    plan = _e4_plan(name)
    outcome = ctx["client"].query_offload(plan, "t")
    assert outcome.result.equals(execute(plan, ctx["data"])), name
    resources = ctx["server"].pipeline_resources(plan, "t")
    return {
        "pipeline": name,
        "ops": len(plan.operators),
        "latency_ms": outcome.latency_s * 1e3,
        "lut": resources.lut,
        "bottleneck": outcome.report.bottleneck,
    }


def e4_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E4: offload pipelines of growing depth (1M-row table)",
        ("pipeline", "ops", "latency ms", "node LUTs", "bottleneck"),
    )
    latencies = []
    for row in rows:
        latencies.append(row["latency_ms"])
        report.add(
            row["pipeline"], row["ops"], row["latency_ms"], row["lut"],
            row["bottleneck"],
        )
    # Depth must not collapse throughput: the deepest pipeline is within
    # 2x of the shallowest (streaming, not serial re-scans).
    assert max(latencies) < 2.0 * min(latencies)
    report.note("all results verified against the CPU engine")
    return [report]


@register("e4")
def _e4_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e4",
        title="Farview multi-operator pipelines",
        grid=tuple({"pipeline": name} for name in _E4_PIPELINES),
        seeds=(4,),
        prepare=e4_prepare,
        cell=e4_cell,
        assemble=e4_assemble,
    )


# -- E19: multi-tenant smart memory (event-driven) --------------------------

_E19_CLIENTS = (1, 4, 16)


def e19_prepare() -> dict:
    from ...farview import FarviewServer
    from ...relational import (
        AggFunc,
        AggSpec,
        Aggregate,
        Filter,
        QueryPlan,
        Table,
        col,
    )
    from ...workloads import uniform_table

    server = FarviewServer()
    server.store("t", Table(uniform_table(500_000, n_payload_cols=2,
                                          key_max=1_000_000, seed=11)))
    plan = QueryPlan((
        Filter(col("key") < 10_000),
        Aggregate((AggSpec(AggFunc.SUM, "val0"),)),
    ))
    return {"server": server, "plan": plan}


def e19_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...farview import simulate_clients

    if config["part"] == "load":
        n_clients = config["clients"]
        rows = {}
        for mode in ("offload", "fetch"):
            out = simulate_clients(ctx["server"], ctx["plan"], "t",
                                   n_clients, mode=mode)
            rows[mode] = {
                "qps": out.aggregate_qps,
                "lat_ms": out.mean_latency_s * 1e3,
                "mem_busy": round(out.memory_busy_fraction, 2),
                "net_busy": round(out.network_busy_fraction, 2),
            }
        return {
            "part": "load",
            "clients": n_clients,
            "ratio": rows["offload"]["qps"] / rows["fetch"]["qps"],
            **{f"{mode}_{k}": v
               for mode, vals in rows.items() for k, v in vals.items()},
        }

    # Busy/stall breakdown of the most contended point: a profiled rerun
    # of the 16-client offload case puts the shared DRAM and egress
    # ports on trace tracks.
    from ...obs import Profiler

    prof = Profiler()
    simulate_clients(ctx["server"], ctx["plan"], "t", 16, mode="offload",
                     tracer=prof.tracer)
    profile = prof.report()
    snapshot = {
        key: value
        for key, value in prof.tracer.registry.snapshot().items()
        if key.startswith(("memory.", "sim.events"))
    }
    dram = profile.component("memory:dram-agg")
    assert dram.busy_fraction > 0.5, "offload at 16 clients is DRAM-bound"
    return {"part": "profile", "snapshot": snapshot}


def e19_assemble(rows: list[dict]) -> list[ResultTable]:
    load = [r for r in rows if r["part"] == "load"]
    profile = [r for r in rows if r["part"] == "profile"]
    report = ResultTable(
        "E19: tenants on one smart-memory node (event simulation)",
        ("clients", "mode", "agg QPS", "mean lat ms",
         "mem busy", "net busy"),
    )
    for row in load:
        for mode in ("offload", "fetch"):
            report.add(
                row["clients"], mode, row[f"{mode}_qps"],
                row[f"{mode}_lat_ms"], row[f"{mode}_mem_busy"],
                row[f"{mode}_net_busy"],
            )
    if load:
        assert min(r["ratio"] for r in load) > 3, \
            "offload tenants aggregate much more QPS"
    report.note("offload is DRAM-scan bound; fetch saturates the 100G wire")
    if profile:
        report.add_metrics(profile[0]["snapshot"],
                           title="obs metrics (16-client offload)")
    return [report]


@register("e19")
def _e19_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "load", "clients": n} for n in _E19_CLIENTS]
        + [{"part": "profile"}]
    )
    return ExperimentSpec(
        experiment="e19",
        title="multi-tenant smart memory (event-driven)",
        grid=grid,
        seeds=(0,),
        prepare=e19_prepare,
        cell=e19_cell,
        assemble=e19_assemble,
    )
