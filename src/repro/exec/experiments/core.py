"""Core-model experiments: e1 (HLS pipelining), e2 (line rate), e12
(resource utilization)."""

from __future__ import annotations

from typing import Any

from ...bench import ResultTable
from .base import ExperimentSpec, register

# -- E1: HLS pipelining study -----------------------------------------------

_E1_SWEEPS = (
    ("temporal", False, 1, 1),
    ("II=4", True, 4, 1),
    ("II=2", True, 2, 1),
    ("II=1", True, 1, 1),
    ("II=1 x4", True, 1, 4),
    ("II=1 x16", True, 1, 16),
    ("II=1 x64", True, 1, 64),
)
_E1_ABLATION_ITEMS = 20_000


def _e1_loop():
    from ...core import LoopNest

    return LoopNest(
        name="stream-op",
        trip_count=1_000_000,
        ops={"mem_read": 2, "mul": 1, "add": 1, "mem_write": 1},
    )


def e1_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...core import (
        Burst,
        BurstKernel,
        ItemKernel,
        Pragmas,
        run_pipeline,
        solve_chain,
        synthesize,
    )

    loop = _e1_loop()
    if config["part"] == "sweep":
        temporal = synthesize(loop, Pragmas(pipeline=False))
        base_rate = temporal.throughput_items_per_sec()
        spec = synthesize(loop, Pragmas(
            pipeline=config["pipeline"], pipeline_ii=config["ii"],
            unroll=config["unroll"],
        ))
        rate = spec.throughput_items_per_sec()
        return {
            "part": "sweep",
            "label": config["label"],
            "ii": spec.ii,
            "unroll": spec.unroll,
            "rate": rate,
            "speedup": rate / base_rate,
            "lut": spec.resources.lut,
        }

    # Ablation: the three timing models must agree on the same kernel.
    spec = synthesize(loop, Pragmas(pipeline=True, pipeline_ii=2))
    n = _E1_ABLATION_ITEMS

    item = run_pipeline(range(n), [ItemKernel(spec, lambda x: x)], (4, 4))
    t_item = item.done_at_ps / 1e6
    burst = run_pipeline([Burst(payload=None, count=n)],
                         [BurstKernel(spec, lambda b: b)], (4, 4))
    t_burst = burst.done_at_ps / 1e6

    t_solver = solve_chain([spec], []).time_for_items(n) * 1e6

    assert t_item == t_burst, "burst abstraction changed total cycles"
    assert abs(t_solver - t_item) / t_item < 0.01, (
        "analytic solver within 1% of per-item simulation"
    )
    return {
        "part": "ablation",
        "t_item_us": t_item,
        "t_burst_us": t_burst,
        "t_solver_us": t_solver,
    }


def e1_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    sweep = [r for r in rows if r["part"] == "sweep"]
    ablation = [r for r in rows if r["part"] == "ablation"]
    if sweep:
        table = ResultTable(
            "E1: throughput vs pragmas (1M-item streaming operator)",
            ("pragmas", "II", "unroll", "M items/s", "speedup vs temporal",
             "LUTs"),
        )
        rates = []
        for row in sweep:
            rates.append(row["rate"])
            table.add(
                row["label"], row["ii"], row["unroll"], row["rate"] / 1e6,
                row["speedup"], row["lut"],
            )
        assert rates == sorted(rates), "more parallelism must not slow down"
        assert rates[-1] / rates[0] > 100, "unrolled pipeline >100x temporal"
        tables.append(table)
    if ablation:
        table = ResultTable(
            "E1b: timing-model ablation (same kernel, three models)",
            ("model", "time for 20k items (us)"),
        )
        row = ablation[0]
        table.add("per-item events", row["t_item_us"])
        table.add("burst events", row["t_burst_us"])
        table.add("analytic solver", row["t_solver_us"])
        tables.append(table)
    return tables


@register("e1")
def _e1_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "sweep", "label": label, "pipeline": pipeline,
          "ii": ii, "unroll": unroll}
         for label, pipeline, ii, unroll in _E1_SWEEPS]
        + [{"part": "ablation"}]
    )
    return ExperimentSpec(
        experiment="e1",
        title="HLS pipelining study (§2 Programming)",
        grid=grid,
        seeds=(0,),
        prepare=lambda: None,
        cell=e1_cell,
        assemble=e1_assemble,
    )


# -- E2: line-rate stream processing ----------------------------------------

_E2_N_ROWS = 4_000_000


def e2_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...baselines import xeon_server
    from ...network import ethernet_100g, fpga_tcp, kernel_tcp
    from ...relational import (
        ColumnType,
        Filter,
        Project,
        QueryPlan,
        Schema,
        Table,
        col,
        cpu_cost_s,
        make_operator_kernel,
    )
    from ...workloads import uniform_table

    # The stream carries key plus two float64 payload columns; the plan
    # reads only key and val0, which are drawn first, so val1 is not
    # drawn and the stream's size comes from the layout.
    layout = Schema.of(key=ColumnType.INT64, val0=ColumnType.FLOAT64,
                       val1=ColumnType.FLOAT64)
    table_data = Table(uniform_table(_E2_N_ROWS, n_payload_cols=1,
                                     key_max=1_000_000, seed=2))
    row_bytes = layout.row_nbytes
    plan = QueryPlan((
        Filter(col("key") < 500_000),
        Project(("key", "val0")),
    ))
    line = ethernet_100g()
    stream_bytes = _E2_N_ROWS * row_bytes

    # FPGA: operator kernels in the network datapath.
    filter_kernel = make_operator_kernel(plan.operators[0], row_bytes)
    fpga_rate_rows = filter_kernel.throughput_items_per_sec()
    fpga_goodput = min(
        fpga_rate_rows * row_bytes,
        fpga_tcp().goodput_bytes_per_sec(64 * 1024),
    )

    # CPU: frames cross the kernel stack, then the engine scans.
    cpu = xeon_server()
    stack_goodput = kernel_tcp().goodput_bytes_per_sec(64 * 1024)
    engine_s = cpu_cost_s(plan, table_data, cpu)
    engine_goodput = stream_bytes / engine_s
    cpu_goodput = min(stack_goodput, engine_goodput)

    return {
        "wire": line.bandwidth_bytes_per_sec,
        "fpga_goodput": fpga_goodput,
        "cpu_goodput": cpu_goodput,
    }


def e2_assemble(rows: list[dict]) -> list[ResultTable]:
    row = rows[0]
    wire = row["wire"]
    fpga_goodput = row["fpga_goodput"]
    cpu_goodput = row["cpu_goodput"]
    report = ResultTable(
        "E2: sustained goodput for an in-stream filter+project",
        ("engine", "goodput GB/s", "fraction of 100G line rate"),
    )
    report.add("100 GbE line rate", wire / 1e9, 1.0)
    report.add("FPGA datapath", fpga_goodput / 1e9, fpga_goodput / wire)
    report.add("CPU + kernel TCP", cpu_goodput / 1e9, cpu_goodput / wire)
    report.note("FPGA kernel: 512-bit datapath, II=1, 300 MHz")

    assert fpga_goodput >= 0.9 * wire, "FPGA must sustain ~line rate"
    assert cpu_goodput < 0.6 * wire, "kernel stack caps CPU goodput"
    return [report]


@register("e2")
def _e2_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e2",
        title="line-rate stream processing",
        grid=({},),
        seeds=(2,),
        prepare=lambda: None,
        cell=e2_cell,
        assemble=e2_assemble,
    )


# -- E12: resource utilization across devices -------------------------------

_E12_DESIGNS = (
    "farview offload pipeline",
    "fanns (default config)",
    "fanns (generator max)",
    "microrec",
)


def _e12_demand(name: str):
    from ...core import ResourceVector
    from ...fanns import FannsConfig
    from ...relational import (
        AggFunc,
        AggSpec,
        Filter,
        GroupByAggregate,
        QueryPlan,
        Transform,
        col,
        plan_kernels,
    )

    if name == "farview offload pipeline":
        plan = QueryPlan((
            Transform("decrypt", ops_per_byte=2.0),
            Filter((col("key") < 10) & (col("val0") > 0.5)),
            GroupByAggregate("group", (
                AggSpec(AggFunc.SUM, "value"),
                AggSpec(AggFunc.COUNT, "value", alias="n"),
            )),
        ))
        total = ResourceVector()
        for kernel in plan_kernels(plan, row_nbytes=24):
            total = total + kernel.resources
        return total
    if name == "fanns (default config)":
        return FannsConfig().resources(m=16)
    if name == "fanns (generator max)":
        return FannsConfig(
            n_distance_pes=32, n_lut_pes=32, n_adc_pes=64,
            n_hbm_channels=32,
        ).resources(m=16)
    # Lookup control + DNN systolic array + HBM channels.
    return ResourceVector(
        lut=180_000, ff=260_000, bram_36k=400, uram=320, dsp=2_048,
        hbm_channels=32,
    )


def e12_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...core import DEVICE_CATALOG

    name = config["design"]
    demand = _e12_demand(name)
    fits = {
        key: device.fits(demand) for key, device in DEVICE_CATALOG.items()
    }
    assert any(fits.values()), f"{name} fits nowhere"
    if demand.hbm_channels > 0:
        assert not fits["u250"], "U250 has no HBM"
    util = demand.utilization(DEVICE_CATALOG["u55c"].budget)
    finite = [v for v in util.values() if v != float("inf")]
    # Fitting designs stay within budget (HBM may be fully used).
    assert max(finite) <= 1.0 or not fits["u55c"], (
        "designs are bounded by per-card resource budgets"
    )
    return {
        "design": name,
        "lut": demand.lut,
        "dsp": demand.dsp,
        "bram_36k": demand.bram_36k,
        "hbm_channels": demand.hbm_channels,
        "fits": fits,
    }


def e12_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E12: accelerator resource demand vs device budgets",
        ("design", "LUT", "DSP", "BRAM", "HBM ch",
         "u250", "u280", "u55c"),
    )
    for row in rows:
        fits = row["fits"]
        report.add(
            row["design"], row["lut"], row["dsp"], row["bram_36k"],
            row["hbm_channels"],
            "fits" if fits["u250"] else "no",
            "fits" if fits["u280"] else "no",
            "fits" if fits["u55c"] else "no",
        )
    report.note("budgets assume an 80% usable fraction after the shell")
    return [report]


@register("e12")
def _e12_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e12",
        title="resource utilization across devices",
        grid=tuple({"design": name} for name in _E12_DESIGNS),
        seeds=(0,),
        prepare=lambda: None,
        cell=e12_cell,
        assemble=e12_assemble,
    )
