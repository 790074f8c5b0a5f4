"""MicroRec experiments (Use Case III): e7 (end-to-end latency), e8
(Cartesian ablation), e9 (HBM banking / SRAM placement)."""

from __future__ import annotations

from typing import Any

import numpy as np

from ...bench import ResultTable
from .base import ExperimentSpec, register
from .contexts import (
    microrec_model,
    microrec_tables,
    microrec_trace,
    small_microrec_model,
)

# -- E7: end-to-end inference latency (Figures 4-5) -------------------------

_E7_BATCHES = (1, 16, 64, 256)


def e7_prepare() -> dict:
    """Only the model spec: both engines price a batch from its size."""
    return {"model": microrec_model()}


def e7_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...microrec import CpuRecommender, MicroRecAccelerator
    from ...obs import Tracer

    tracer = Tracer()
    batch = config["batch"]
    f = MicroRecAccelerator(ctx["model"], tracer=tracer).price(batch)
    c = CpuRecommender(ctx["model"]).price(batch)
    snapshot = tracer.registry.snapshot()
    accesses = sum(
        v for k, v in snapshot.items()
        if k.startswith("memory.bank_accesses")
    )
    conflicts = sum(
        v for k, v in snapshot.items()
        if k.startswith("memory.bank_conflicts")
    )
    return {
        "batch": batch,
        "cpu_lat_us": c.latency_s * 1e6,
        "fpga_lat_us": f.latency_s * 1e6,
        "gain": c.latency_s / f.latency_s,
        "cpu_qps": c.qps,
        "fpga_qps": f.qps,
        "accesses": accesses,
        "conflicts": conflicts,
        "n_tables": ctx["model"].n_tables,
        "embedding_bytes": ctx["model"].total_embedding_bytes,
    }


def e7_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E7: CTR inference latency & throughput, CPU vs MicroRec",
        ("batch", "CPU lat us", "FPGA lat us", "lat speedup",
         "CPU QPS", "FPGA QPS"),
    )
    gains = []
    for row in rows:
        gains.append(row["gain"])
        report.add(row["batch"], row["cpu_lat_us"], row["fpga_lat_us"],
                   row["gain"], row["cpu_qps"], row["fpga_qps"])
    assert min(gains) > 5, "order-of-magnitude-class latency win"
    report.note(
        f"model: {rows[0]['n_tables']} tables, "
        f"{rows[0]['embedding_bytes'] / 1e6:.0f} MB embeddings"
    )
    accesses = sum(row["accesses"] for row in rows)
    conflicts = sum(row["conflicts"] for row in rows)
    assert accesses > 0, "HBM lookups were traced"
    report.add_metrics(
        {"hbm.lookups": accesses, "hbm.bank_conflicts": conflicts},
        title="obs metrics",
    )
    return [report]


@register("e7")
def _e7_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e7",
        title="MicroRec latency (Figs 4-5)",
        grid=tuple({"batch": b} for b in _E7_BATCHES),
        seeds=(5,),
        prepare=e7_prepare,
        cell=e7_cell,
        assemble=e7_assemble,
    )


# -- E8: Cartesian-product ablation -----------------------------------------

_E8_MULTS = (1.0, 1.5, 2.0, 4.0)


def _e8_config():
    from ...microrec import MicroRecConfig

    return MicroRecConfig(sram_budget_bytes=0, n_hbm_channels=8)


def e8_prepare() -> dict:
    """The shared model, tables and trace plus the plain gather."""
    model = microrec_model()
    tables, trace = microrec_tables(), microrec_trace()
    return {"model": model, "tables": tables, "trace": trace,
            "features": tables.lookup(trace)}


def e8_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...microrec import MicroRecAccelerator, plan_cartesian

    mult = config["mult"]
    model = ctx["model"]
    plan = plan_cartesian(
        model, byte_budget=int(mult * model.total_embedding_bytes)
    )
    accel = MicroRecAccelerator(model, plan=plan, config=_e8_config())
    out = accel.price(len(ctx["trace"]))
    assert np.array_equal(
        plan.lookup(ctx["tables"], ctx["trace"]), ctx["features"]
    ), "the Cartesian encoding must decode to the gathered rows"
    return {
        "mult": mult,
        "lookups": accel.lookups_per_inference,
        "capacity_overhead": round(plan.capacity_overhead, 2),
        "lookup_us": out.lookup_s * 1e6,
        "qps": out.qps,
    }


def e8_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E8: Cartesian budget sweep (8 HBM channels, no SRAM)",
        ("byte budget", "lookups/inf", "capacity overhead",
         "lookup stage us", "batch QPS"),
    )
    lookups, stage_times = [], []
    for row in rows:
        lookups.append(row["lookups"])
        stage_times.append(row["lookup_us"])
        report.add(
            f"{row['mult']:.1f}x", row["lookups"],
            row["capacity_overhead"], row["lookup_us"], row["qps"],
        )
    assert lookups[-1] < lookups[0], "budget buys fewer lookups"
    assert stage_times[-1] < stage_times[0], "fewer lookups -> faster stage"
    assert lookups == sorted(lookups, reverse=True), (
        "a larger Cartesian budget never adds lookups"
    )
    return [report]


@register("e8")
def _e8_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e8",
        title="MicroRec Cartesian ablation",
        grid=tuple({"mult": m} for m in _E8_MULTS),
        seeds=(5,),
        prepare=e8_prepare,
        cell=e8_cell,
        assemble=e8_assemble,
    )


# -- E9: HBM banking sweep and SRAM placement ablation ----------------------

_E9_BATCH = 256
_E9_CHANNELS = (1, 2, 4, 8, 16, 32)
_E9_SRAM_MB = (0, 1, 4, 16, 32)


def e9_prepare() -> dict:
    """Only the model spec: e9 prices lookups and gathers no rows."""
    return {"model": microrec_model()}


def e9_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...microrec import MicroRecAccelerator, MicroRecConfig

    if config["part"] == "channels":
        # A model small enough to fit a single HBM pseudo-channel, so
        # the sweep can start at 1 channel.
        channels = config["channels"]
        cfg = MicroRecConfig(sram_budget_bytes=0, n_hbm_channels=channels)
        accel = MicroRecAccelerator(small_microrec_model(), config=cfg)
        return {
            "part": "channels",
            "channels": channels,
            "t_s": accel.lookup_time_s(_E9_BATCH),
        }

    budget_mb = config["budget_mb"]
    cfg = MicroRecConfig(
        sram_budget_bytes=budget_mb << 20, n_hbm_channels=32
    )
    accel = MicroRecAccelerator(ctx["model"], config=cfg)
    return {
        "part": "sram",
        "budget_mb": budget_mb,
        "sram_tables": len(accel.placement.sram_tables),
        "hbm_lookups": accel.hbm_lookups_per_inference,
        "lookup_s": accel.lookup_time_s(_E9_BATCH),
    }


def e9_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    channels = [r for r in rows if r["part"] == "channels"]
    sram = [r for r in rows if r["part"] == "sram"]
    if channels:
        report = ResultTable(
            "E9a: lookup stage vs HBM channel count (no SRAM)",
            ("channels", "lookup stage us", "speedup vs 1 channel"),
        )
        times = []
        for row in channels:
            times.append(row["t_s"])
            report.add(row["channels"], row["t_s"] * 1e6,
                       times[0] / row["t_s"])
        assert times == sorted(times, reverse=True), \
            "more channels never hurt"
        assert times[0] / times[-1] > 4, "banking parallelism pays off"
        # Saturation: the last doubling helps less than the first.
        first_gain = times[0] / times[1]
        last_gain = times[-2] / times[-1]
        assert last_gain < first_gain, "HBM channel speedup saturates"
        tables.append(report)
    if sram:
        report = ResultTable(
            "E9b: SRAM placement ablation (32 HBM channels)",
            ("SRAM budget MB", "tables in SRAM", "HBM lookups/inf",
             "lookup stage us"),
        )
        times = []
        for row in sram:
            times.append(row["lookup_s"])
            report.add(row["budget_mb"], row["sram_tables"],
                       row["hbm_lookups"], row["lookup_s"] * 1e6)
        assert times[-1] <= times[0], "SRAM placement never hurts"
        tables.append(report)
    return tables


@register("e9")
def _e9_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "channels", "channels": c} for c in _E9_CHANNELS]
        + [{"part": "sram", "budget_mb": mb} for mb in _E9_SRAM_MB]
    )
    return ExperimentSpec(
        experiment="e9",
        title="MicroRec HBM banking / SRAM placement",
        grid=grid,
        seeds=(9,),
        prepare=e9_prepare,
        cell=e9_cell,
        assemble=e9_assemble,
    )
