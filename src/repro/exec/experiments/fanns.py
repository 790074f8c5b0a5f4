"""FANNS experiments (Use Case II): e5 (QPS vs recall), e6 (hardware
generator DSE), e16 (scale-out: distributed FANNS + FleetRec)."""

from __future__ import annotations

from typing import Any

import numpy as np

from ...bench import ResultTable
from .base import ExperimentSpec, register
from .contexts import FANNS_LIST_SCALE, fanns_dataset, fanns_index, scale_key

_E5_NPROBES = (1, 2, 4, 8, 16, 32)
_E5_K = 10


# -- E5: QPS vs recall Pareto (Figure 3) ------------------------------------


def e5_prepare() -> dict:
    """The shared dataset and trained index."""
    return {"data": fanns_dataset(), "index": fanns_index()}


def e5_cell(ctx: dict, config: dict, seed: int) -> dict:
    """One nprobe point: one search, priced on all three engines."""
    from ...fanns import (
        CpuAnnSearcher,
        FannsAccelerator,
        GpuAnnSearcher,
        SearchStats,
        recall_at_k,
    )

    index, data, nprobe = ctx["index"], ctx["data"], config["nprobe"]
    stats = SearchStats()
    ids = index.search(data.queries, _E5_K, nprobe, stats=stats)
    shape, scale = index.shape, FANNS_LIST_SCALE
    f = FannsAccelerator(shape, list_scale=scale).price(nprobe, len(ids))
    c = CpuAnnSearcher(shape, list_scale=scale).price(stats)
    g = GpuAnnSearcher(shape, list_scale=scale).price(stats)
    recall = recall_at_k(ids, data.ground_truth)
    return {
        "nprobe": nprobe,
        "recall": float(recall),
        "fpga_qps": float(f.qps),
        "cpu_qps": float(c.qps),
        "gpu_qps": float(g.qps),
        "fpga_lat_us": float(f.query_latency_s * 1e6),
        "cpu_lat_us": float(c.query_latency_s * 1e6),
        "gpu_lat_us": float(g.query_latency_s * 1e6),
        "latency_gain": float(c.query_latency_s / f.query_latency_s),
        "fpga_beats_gpu": bool(f.query_latency_s < g.query_latency_s),
    }


def e5_assemble(rows: list[dict]) -> list[ResultTable]:
    """Rebuild the E5 table (and shape claims) from cell dicts."""
    report = ResultTable(
        "E5: QPS vs recall@10 (FPGA vs CPU vs GPU, modeled 40M vectors)",
        ("nprobe", "recall@10", "FPGA QPS", "CPU QPS", "GPU QPS",
         "FPGA lat us", "CPU lat us", "GPU lat us"),
    )
    recalls, latency_gains = [], []
    for row in rows:
        recalls.append(row["recall"])
        latency_gains.append(row["latency_gain"])
        report.add(
            row["nprobe"], round(row["recall"], 3), row["fpga_qps"],
            row["cpu_qps"], row["gpu_qps"], row["fpga_lat_us"],
            row["cpu_lat_us"], row["gpu_lat_us"],
        )
        # The SLA triangle: FPGA holds the latency edge over both.
        assert row["fpga_beats_gpu"]
    assert recalls == sorted(recalls), "recall monotone in nprobe"
    assert recalls[-1] > 0.85, "high-recall regime reachable"
    assert min(latency_gains) > 5, "FPGA latency advantage holds"
    return [report]


@register("e5")
def _e5_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e5",
        title="FANNS QPS vs recall (Fig 3)",
        grid=tuple({"nprobe": n} for n in _E5_NPROBES),
        seeds=(13,),
        prepare=e5_prepare,
        cell=e5_cell,
        assemble=e5_assemble,
        context_key=scale_key(),
    )


# -- E6: hardware-generator design-space exploration ------------------------

_E6_TARGETS = (0.5, 0.7, 0.8, 0.9)


def e6_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...core import ALVEO_U55C
    from ...fanns import FannsConfig, HardwareGenerator

    index, data = ctx["index"], ctx["data"]
    generator = HardwareGenerator(
        index, data.queries, data.ground_truth, k=10,
        device=ALVEO_U55C, list_scale=FANNS_LIST_SCALE,
    )
    target = config["target"]
    best, points = generator.explore(recall_target=target)
    assert best is not None, f"target {target} unreachable"
    assert best.fits
    demand = best.config.resources(index.pq.m)
    assert ALVEO_U55C.fits(demand)

    # The resource budget must actually bind somewhere in the space.
    monster = FannsConfig(n_distance_pes=32, n_lut_pes=32,
                          n_adc_pes=4096, n_hbm_channels=32)
    assert not ALVEO_U55C.fits(monster.resources(index.pq.m))

    return {
        "target": target,
        "nprobe": best.nprobe,
        "recall": float(best.recall),
        "qps": float(best.qps),
        "lat_us": float(best.latency_s * 1e6),
        "n_distance_pes": best.config.n_distance_pes,
        "n_adc_pes": best.config.n_adc_pes,
        "n_hbm_channels": best.config.n_hbm_channels,
        "feasible": sum(1 for p in points if p.fits),
        "total": len(points),
    }


def e6_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E6: best feasible U55C design per recall target",
        ("target", "nprobe", "recall", "QPS", "lat us",
         "dist PEs", "ADC PEs", "HBM ch", "feasible/total"),
    )
    qps_series = []
    for row in rows:
        qps_series.append(row["qps"])
        report.add(
            row["target"], row["nprobe"], round(row["recall"], 3),
            row["qps"], row["lat_us"], row["n_distance_pes"],
            row["n_adc_pes"], row["n_hbm_channels"],
            f"{row['feasible']}/{row['total']}",
        )
    assert qps_series == sorted(qps_series, reverse=True), \
        "recall costs QPS"
    return [report]


@register("e6")
def _e6_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e6",
        title="FANNS hardware generator",
        grid=tuple({"target": t} for t in _E6_TARGETS),
        seeds=(13,),
        prepare=e5_prepare,
        cell=e6_cell,
        assemble=e6_assemble,
        context_key=scale_key(),
    )


# -- E16: scale-out (distributed FANNS + FleetRec) --------------------------

_E16_NODES = (1, 2, 4, 8)


def e16_prepare() -> dict:
    index, data = fanns_index(), fanns_dataset()
    single_ids = index.search(data.queries, 10, 16)
    return {"index": index, "data": data, "single_ids": single_ids}


def e16_cell(ctx: dict, config: dict, seed: int) -> dict:
    if config["part"] == "fanns":
        from ...fanns import DistributedFanns

        nodes = config["nodes"]
        dist = DistributedFanns(
            ctx["index"], n_nodes=nodes, list_scale=FANNS_LIST_SCALE
        )
        out = dist.search(ctx["data"].queries, 10, 16)
        assert np.array_equal(out.ids, ctx["single_ids"]), \
            "sharding changed results"
        return {
            "part": "fanns",
            "nodes": nodes,
            "qps": float(out.qps),
            "lat_us": float(out.query_latency_s * 1e6),
        }

    # FleetRec: a large-MLP model — the regime where a GPU DNN tier
    # pays off.
    from ...microrec import (
        CpuRecommender,
        EmbeddingTables,
        FleetRecCluster,
        MicroRecAccelerator,
        V100,
    )
    from ...workloads import lookup_trace, production_like_model

    spec = production_like_model(n_tables=47, max_rows=500_000, seed=51)
    spec = type(spec)(
        table_rows=spec.table_rows,
        embedding_dim=spec.embedding_dim,
        mlp_layers=(4096, 2048, 1024),
    )
    tables = EmbeddingTables(spec, seed=51)
    trace = lookup_trace(spec, batch_size=512, seed=52)
    # FleetRec computes the logits; the CPU and MicroRec share that one
    # functional model and contribute only their timing models.
    fleet = FleetRecCluster(tables, n_lookup_nodes=2, n_gpu_nodes=2,
                            gpu=V100, seed=6)
    fleet_out = fleet.infer(trace)
    cpu_out = CpuRecommender(spec, seed=6).price(len(trace))
    micro_out = MicroRecAccelerator(spec, seed=6).price(len(trace))
    assert fleet_out.qps > micro_out.qps, \
        "GPU DNN tier lifts throughput for big MLPs"
    assert micro_out.latency_s < cpu_out.latency_s
    return {
        "part": "fleetrec",
        "engines": [
            ("CPU", float(cpu_out.latency_s * 1e6), float(cpu_out.qps)),
            ("MicroRec (1 FPGA)", float(micro_out.latency_s * 1e6),
             float(micro_out.qps)),
            ("FleetRec (2 FPGA + 2 GPU)", float(fleet_out.latency_s * 1e6),
             float(fleet_out.qps)),
        ],
    }


def e16_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    fanns_rows = [r for r in rows if r["part"] == "fanns"]
    fleet_rows = [r for r in rows if r["part"] == "fleetrec"]
    if fanns_rows:
        report = ResultTable(
            "E16a: sharded FANNS scale-out (nprobe=16, modeled 40M vectors)",
            ("nodes", "QPS", "latency us", "speedup vs 1 node"),
        )
        qps_series = []
        for row in fanns_rows:
            qps_series.append(row["qps"])
            report.add(row["nodes"], row["qps"], row["lat_us"],
                       row["qps"] / qps_series[0])
        assert qps_series == sorted(qps_series), "QPS grows with nodes"
        assert qps_series[-1] > 3 * qps_series[0]
        tables.append(report)
    if fleet_rows:
        report = ResultTable(
            "E16b: FleetRec vs MicroRec vs CPU (4096-2048-1024 MLP, "
            "batch 512)",
            ("engine", "latency us", "QPS"),
        )
        for engine, lat_us, qps in fleet_rows[0]["engines"]:
            report.add(engine, lat_us, qps)
        tables.append(report)
    return tables


@register("e16")
def _e16_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "fanns", "nodes": n} for n in _E16_NODES]
        + [{"part": "fleetrec"}]
    )
    return ExperimentSpec(
        experiment="e16",
        title="scale-out: distributed FANNS + FleetRec",
        grid=grid,
        seeds=(16,),
        prepare=e16_prepare,
        cell=e16_cell,
        assemble=e16_assemble,
        context_key=scale_key(),
    )
